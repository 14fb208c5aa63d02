/* The exploration walk of explore.py, and its judge, the certified DP of
 * oracle.py: the only bodies of both in the package.  Their Python
 * references live with the tests, and each entry is tested against one.
 *
 * Each walk entry makes, runs and frees its walks inside one call, and
 * hands back a few numbers or fills arrays the caller owns.  One walk
 * is the splitmix64 edge sampler (base and threshold of the Config), the
 * depth-first stack, the count of examined edges, the scan offset and the
 * scan guard, and on some walks the right-boundary values r.  No edge
 * status is kept: an edge is sampled where it is examined, and no edge is
 * examined twice.  A site's out-edges are examined only while it is on the
 * stack; it leaves the stack only after both are, and it is then dead, so
 * no later edge enters it.  The one loop of walk_to makes the same steps
 * as ExplorationCluster.advance_level: the same scan order, the same packed
 * keys, the same guard.  It folds the up-right and up-left steps into one
 * block on the direction d, where the Python walk keeps the two blocks
 * unrolled because that runs faster there.  The Python walk, with its set
 * of dead sites, is the reference this one is tested against, in
 * tests/_references.py.
 *
 * Dead sites need no set, because the walk is planar: a site queried from
 * the stack is dead exactly when its column is at or right of the least
 * dead column at its level.  Say (t, y) is dead, y < x, and (t, x) is
 * queried from the stack.  The path on which (t, y) was pushed starts at
 * an earlier, and so further right, start site, or leaves the stack path
 * by an up-right step where the stack now goes up-left.  Either way it
 * runs right of the stack path and ends left of (t, x); paths move one
 * column per level, so the two share a site below t.  That site is on the
 * stack, so not dead; yet it lies on the earlier path past the point where
 * that path left the stack, all of which has been popped and is dead.  So
 * a queried site is never right of the least dead column: at it, the site
 * is dead, and left of it not.
 *
 * That column needs no buffer either.  Each site dies left of those that
 * died before it at its level, as it was pushed left of them, and a
 * popped site's entry stays in sx until the next push at its level.  So
 * above the top, sx[j] is the least dead column at level j; sx[target]
 * holds INT64_MAX from the moment its level opens, as nothing is dead
 * there yet.  Between levels the stack sx[0:target] is the left boundary,
 * and its top sx[target - 1] is r at the last level completed.
 *
 * A walk is its buffers, walk_t, and its cursor, cursor_t: the top of the
 * stack, the top's column x and state st (how many of its out-edges have
 * been examined), the level it searches, the scan offset and the count of
 * examined edges.  walk_to reads the cursor and the buffers' pointers into
 * locals on entry, and writes the cursor back once, on return; while it
 * runs, st stands for state[top], which is written only when the top
 * pushes.  The sampler, t0, the origin and the guard come in as arguments.
 * So nothing the loop reads lives behind a pointer that its stores can
 * reach.  A store through the uint8_t state may alias any object: were the
 * cursor and the constants fields of walk_t, the compiled loop would
 * reload them all after each push and keep n_examined in memory.  A
 * completed level is a branch inside the loop, not a return to an outer
 * one: it writes r, grows a growing walk's stack and opens the next
 * level's sx slot, and leaves the loop only at the last level asked for.
 *
 * walk_value walks one start to r at one level, walk_pair an equal-time
 * pair in lockstep; their walks keep no r, and their sx and state buffers
 * grow with the walk, as a pair may stop at its merge long before its
 * target level.  walk_breaks walks one start to its break-point sums, and
 * walk_bounds one start to its boundaries at two levels.  These two keep
 * r, as they need it at every level, and their target level is known up
 * front, so r, sx and state share one block of that size, with the sx
 * slot of the level after it: no realloc while walking, and one free at
 * the end.  glibc raises its trim threshold to twice the largest mapped
 * block freed, so the next call's block of the same size comes from the
 * heap, and stays there when freed; three buffers of the walk's size
 * together pass that threshold, and were handed back to the kernel and
 * faulted in again on every call.
 *
 * walk_breaks finds the break levels as break_point_arrays of
 * tests/_references.py finds them on the Python walk's boundaries.  Level
 * j in [0, n - margin] is a break level when r[j] equals sx[j] of the
 * stack frozen at level n + margin; the increments (X, tau) between
 * consecutive break levels are the records of regen.RegenAccumulator,
 * summed here into the six sums it takes.  Every sum is an exact integer.
 *
 * walk_pair keeps both walks' cursors in its own locals and steps them in
 * lockstep through walk_to, inlined, so that no level costs a call: one
 * level of the left walk, then one of the right, until the first level n
 * with r_R(n) <= r_L(n), read off the two cursors' x.  Stopping the right
 * walk there is exact for starts at one time t0 (Durrett, Ann. Probab.
 * 1984).  r_x(n) is the rightmost site at level n reached from the
 * half-line (-inf, x] at t0, so r_L <= r_R.  An open path from the right
 * half-line to a site at or left of r_L(n) starts right of the left walk's
 * path to r_L(n) and ends at or left of it, so the two share a site.  So
 * the left half-line reaches every site that the right one reaches at
 * level n, hence at every later level, and the boundaries stay equal.  The
 * left walk goes on alone to the target level, its remaining levels in one
 * walk_to, as a walk that cannot get there must still trip its guard:
 * subcritical pairs merge within a few levels.  Guard trips come in
 * level-then-left-then-right order, so a trip of the right walk after the
 * merge is never reached.
 *
 * walk_pairs runs walk_pair on a batch of replicas in replica order, so
 * that a batch costs one call from Python: the replicas differ in their
 * base only, and share the starts, the threshold, the guard and the level.
 * It writes each merge level into an array the caller owns, and stops at
 * the first replica whose walk_pair does not return 0, with that code, the
 * replica's index and its walk's report; a batch that runs through reports
 * its last replica.  No later replica is walked, so a batch raises what
 * its replicas would raise walked one by one.
 *
 * Keys are the packed keys of lattice.py taken mod 2**64, which is all the
 * sampler reads of them.
 *
 * box_edges and dp_box are the judge of these walks, and use no walk
 * code: no sample, no pack, no walk_t.  box_edges writes a box's edge
 * statuses, as oracle.BoxConfig holds them, into byte arrays the caller
 * owns: the up-right and up-left status of each site at its cell of
 * open_ur and open_ul, 0 at the other cells, and the entry_open flags.  It
 * hashes each edge with its own copy of the splitmix64 mix of lattice.py,
 * under the Config's base, threshold and all-open flag.
 *
 * dp_box is the certified DP of oracle.py on one box.  Its edges are the
 * box's own byte rows, read on every call, so edits made to them after
 * box_edges are seen: each row of open_ur and open_ul is packed into 64-bit
 * words as the DP reaches it, bit i of word k standing for cell 64 k + i
 * of the row.  It fills the lower and upper tables row by row, as the
 * numpy-row reference DP of tests/test_oracle.py does: one level is
 * ((lo & ur) << 2 | (lo & ul)) >> drop, masked to the box width, which is
 * an up-right move by 2 - drop cells and an up-left one by -drop, done word
 * by word with the bits a shift moves past a word's edge carried over from
 * its neighbour.  The upper table also takes the entry bit at the first
 * site of the next row.  A row of the upper table with a cell in the box's
 * two rightmost columns refuses the box.  Then it writes each row's bit
 * length in both tables, from which oracle reads the level maxima, and
 * backtracks the rightmost path from the top level's maximum, trying the
 * up-left edge from y + 1 before the up-right one from y - 1, as that
 * reference does.  The return code is oracle's refusal code, or 0.
 * Build: cc -O2 -std=c99 -shared -fPIC.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define X_BIAS ((int64_t)1 << 31)
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define GROWING (-1) /* walk_init's `levels` for a walk of no fixed size */

enum { WALK_OK = 0, WALK_GUARD = 1, WALK_NOMEM = 2 };

/* A walk's buffers: the stack's columns sx and states, and r. */
typedef struct {
    int64_t *r;                /* on a walk of fixed size only */
    int64_t *sx;
    uint8_t *state;
    void *block;               /* r, sx and state, on a walk of fixed size */
    int64_t cap;               /* entries of sx and state */
} walk_t;

/* Where a walk is: the top of its stack, the top's column x and state st,
 * the level it searches, counted from t0, and its two counts. */
typedef struct {
    int64_t top, x, target, scan_offset, n_examined;
    int st;
} cursor_t;

/* Room for `need` stack entries in both sx and state; a block is never
 * regrown. */
static int grow_stack(walk_t *w, int64_t need)
{
    if (w->block)
        return 0;
    int64_t cap = w->cap;
    while (cap < need)
        cap *= 2;
    int64_t *sx = realloc(w->sx, (size_t)cap * sizeof *sx);
    if (!sx)
        return 0;
    w->sx = sx;
    uint8_t *state = realloc(w->state, (size_t)cap);
    if (!state)
        return 0;
    w->state = state;
    w->cap = cap;
    return 1;
}

/* Set up the walk of the half-line at (origin_x, t0) in *w and *c.  With
 * `levels` >= 0, r, sx and state share one block with room for that many
 * levels past the start and the next one's sx slot, and the walk must go
 * no further; with GROWING, it keeps no r, and sx and state start small
 * and grow with the walk.  Returns 0 if out of memory, and *w can then
 * still be released. */
static int walk_init(walk_t *w, cursor_t *c, int64_t origin_x,
                     int64_t levels)
{
    *c = (cursor_t){0, origin_x, 1, 0, 0, 0};
    memset(w, 0, sizeof *w);
    int64_t cap = 64;
    if (levels != GROWING) {
        if ((uint64_t)levels >= SIZE_MAX / 32)
            return 0; /* the block's size would overflow */
        cap = levels + 2;
        w->block = malloc((size_t)cap * (2 * sizeof(int64_t) + 1));
        if (!w->block)
            return 0;
        w->sx = w->block;
        w->r = w->sx + cap;
        w->state = (uint8_t *)(w->r + cap);
        w->r[0] = origin_x;
    } else {
        w->sx = malloc((size_t)cap * sizeof *w->sx);
        w->state = malloc((size_t)cap);
        if (!w->sx || !w->state)
            return 0;
    }
    w->cap = cap;
    w->sx[0] = origin_x;
    w->sx[1] = INT64_MAX; /* nothing is dead at the new level */
    return 1;
}

static void walk_release(walk_t *w)
{
    if (w->block) {
        free(w->block);
        return;
    }
    free(w->sx);
    free(w->state);
}

static int sample(uint64_t base, uint64_t threshold, int all_open,
                  uint64_t key)
{
    uint64_t z = base + key * GOLDEN;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    z ^= z >> 31;
    return all_open || z < threshold;
}

static uint64_t pack(int64_t hi, int64_t x)
{
    return ((uint64_t)hi << 32) | (uint64_t)(x + X_BIAS);
}

/* Walk on from the cursor *c until level t0 + last is complete, under the
 * sampler (base, threshold, all_open), from the half-line at (origin_x,
 * t0) with its guard.  Stops early on the guard or on failed allocation,
 * after which the walk must not go on.  The cursor is read into locals on
 * entry and written back on return.  always_inline, a GCC and Clang
 * attribute: walk_pair steps each walk one level at a time, and GCC at -O2
 * would otherwise call this loop on every step. */
__attribute__((always_inline))
static inline int walk_to(walk_t *w, cursor_t *c, int64_t last,
                          uint64_t base, uint64_t threshold, int all_open,
                          int64_t t0, int64_t origin_x, int64_t scan_guard)
{
    if (c->target > last)
        return WALK_OK;
    int64_t top = c->top, x = c->x, target = c->target;
    int64_t scan_offset = c->scan_offset, n_examined = c->n_examined;
    int st = c->st;
    int64_t *r = w->r, *sx = w->sx, cap = w->cap;
    uint8_t *state = w->state;
    int code = WALK_OK;
    for (;;) {
        if (st < 2) {
            int d = st == 0; /* up-right first, then up-left */
            st++;
            n_examined++;
            if (!sample(base, threshold, all_open,
                        pack(2 * (t0 + top) + d, x)))
                continue;
            int64_t cx = d ? x + 1 : x - 1;
            /* above the top, sx holds the least dead column */
            if (cx >= sx[top + 1])
                continue;
            state[top++] = (uint8_t)st;
            sx[top] = x = cx;
            st = 0;
            if (top < target)
                continue;
            /* the level is complete: the next one opens */
            if (r)
                r[target] = x;
            target++;
            if (target + 1 > cap) {
                if (!grow_stack(w, target + 1)) {
                    code = WALK_NOMEM;
                    break;
                }
                sx = w->sx;
                state = w->state;
                cap = w->cap;
            }
            sx[target] = INT64_MAX; /* nothing is dead at the new level */
            if (target > last)
                break;
        } else if (top > 0) {
            top--; /* sx[top + 1] stays, the level's least dead column */
            x = sx[top];
            st = state[top];
        } else {
            /* every path from the start site is dead: restart two columns
             * left */
            scan_offset++;
            if (scan_offset >= scan_guard) {
                code = WALK_GUARD;
                break;
            }
            sx[0] = x = origin_x - 2 * scan_offset;
            st = 0;
        }
    }
    *c = (cursor_t){top, x, target, scan_offset, n_examined, st};
    return code;
}

/* rep[0:3]: the scan offset of the walk at c, the last level it completed
 * and the edges it examined; the first two name a guard trip. */
static int report(const cursor_t *c, int64_t t0, int code, int64_t *rep)
{
    rep[0] = c->scan_offset;
    rep[1] = t0 + c->target - 1;
    rep[2] = c->n_examined;
    return code;
}

/* r at `level` of the walk from (x, t0), into out[1]; out[0] = -1.
 * Returns the walk's code, and the walk's report in out[3:6]. */
int walk_value(int64_t x, int64_t t0, uint64_t base, uint64_t threshold,
               int all_open, int64_t scan_guard, int64_t level, int64_t *out)
{
    walk_t w;
    cursor_t c;
    int code = walk_init(&w, &c, x, GROWING)
               ? walk_to(&w, &c, level - t0, base, threshold, all_open, t0,
                         x, scan_guard)
               : WALK_NOMEM;
    out[0] = -1;
    out[1] = code ? 0 : c.x;
    code = report(&c, t0, code, out + 3);
    walk_release(&w);
    return code;
}

/* The pair from (xl, t0) and (xr, t0) in lockstep to `level`: out[0] is
 * n - t0 for the first level n with r_R(n) <= r_L(n), or -1 with r_L and
 * r_R at `level` in out[1] and out[2].  The right walk stops at that level
 * and the left one goes on to `level`.  Returns the code of the walk that
 * stopped the pair (0 if none did), with that walk's report in out[3:6]. */
int walk_pair(int64_t xl, int64_t xr, int64_t t0, uint64_t base,
              uint64_t threshold, int all_open, int64_t scan_guard,
              int64_t level, int64_t *out)
{
    walk_t w[2];
    cursor_t c[2];
    int ok = walk_init(&w[0], &c[0], xl, GROWING);
    ok &= walk_init(&w[1], &c[1], xr, GROWING);
    int code = ok ? WALK_OK : WALK_NOMEM;
    cursor_t *stop = &c[0];
    out[0] = xr <= xl ? 0 : -1;
    for (int64_t j = 1; !code && out[0] < 0 && j <= level - t0; j++) {
        code = walk_to(&w[0], stop = &c[0], j, base, threshold, all_open, t0,
                       xl, scan_guard);
        if (!code)
            code = walk_to(&w[1], stop = &c[1], j, base, threshold,
                           all_open, t0, xr, scan_guard);
        if (!code && c[1].x <= c[0].x)
            out[0] = j;
    }
    /* past the merge the left walk goes on alone, for its guard */
    if (!code && out[0] >= 0)
        code = walk_to(&w[0], stop = &c[0], level - t0, base, threshold,
                       all_open, t0, xl, scan_guard);
    out[1] = code ? 0 : c[0].x;
    out[2] = code ? 0 : c[1].x;
    code = report(stop, t0, code, out + 3);
    walk_release(&w[0]);
    walk_release(&w[1]);
    return code;
}

/* walk_pair of (xl, t0) and (xr, t0) to `level` on `count` configurations,
 * replica k on bases[k], all under one threshold: merge[k] gets its out[0],
 * the merge's level from t0 or -1.  Stops at the first replica, in order,
 * whose walk_pair does not return 0, and returns that code; merge[k] past
 * it is not written.  rep[0] gets the index of the last replica walked,
 * and rep[1:4] its walk's report. */
int walk_pairs(int64_t xl, int64_t xr, int64_t t0, const uint64_t *bases,
               int64_t count, uint64_t threshold, int all_open,
               int64_t scan_guard, int64_t level, int64_t *merge,
               int64_t *rep)
{
    int64_t out[6];
    for (int64_t k = 0; k < count; k++) {
        int code = walk_pair(xl, xr, t0, bases[k], threshold, all_open,
                             scan_guard, level, out);
        rep[0] = k;
        memcpy(rep + 1, out + 3, 3 * sizeof *out);
        if (code)
            return code;
        merge[k] = out[0];
    }
    return WALK_OK;
}

/* The break-point sums of the walk from (x, t0) to level t0 + n + margin,
 * for 0 < margin <= n: over the break levels j in [0, n - margin], the
 * increments X = r[j] - r[i] and tau = j - i from each break level i to
 * the next one j, summed into out[0:6] as the count, sum X, sum tau,
 * sum X^2, sum X tau and sum tau^2; r[n] into out[6].  Returns the walk's
 * code, and the walk's report in out[7:10]. */
int walk_breaks(int64_t x, int64_t t0, uint64_t base, uint64_t threshold,
                int all_open, int64_t scan_guard, int64_t n, int64_t margin,
                int64_t *out)
{
    walk_t w;
    cursor_t c;
    int code = walk_init(&w, &c, x, n + margin)
               ? walk_to(&w, &c, n + margin, base, threshold, all_open, t0,
                         x, scan_guard)
               : WALK_NOMEM;
    memset(out, 0, 7 * sizeof *out);
    if (!code) {
        const int64_t *r = w.r, *sx = w.sx;
        int64_t last = -1;
        for (int64_t j = 0; j <= n - margin; j++) {
            if (r[j] != sx[j])
                continue;
            if (last >= 0) {
                int64_t dx = r[j] - r[last], dt = j - last;
                out[0]++;
                out[1] += dx;
                out[2] += dt;
                out[3] += dx * dx;
                out[4] += dx * dt;
                out[5] += dt * dt;
            }
            last = j;
        }
        out[6] = r[n];
    }
    code = report(&c, t0, code, out + 7);
    walk_release(&w);
    return code;
}

/* The boundaries of the walk from (x, t0), for t0 <= n <= horizon: its
 * left boundary at level n into left_out[0:n - t0 + 1], then, walked on to
 * `horizon`, r and its left boundary there into r_out and gamma_out, each
 * [0:horizon - t0 + 1].  Returns the walk's code, and the walk's report in
 * rep[0:3]. */
int walk_bounds(int64_t x, int64_t t0, uint64_t base, uint64_t threshold,
                int all_open, int64_t scan_guard, int64_t n, int64_t horizon,
                int64_t *r_out, int64_t *left_out, int64_t *gamma_out,
                int64_t *rep)
{
    walk_t w;
    cursor_t c;
    int code = walk_init(&w, &c, x, horizon - t0)
               ? walk_to(&w, &c, n - t0, base, threshold, all_open, t0, x,
                         scan_guard)
               : WALK_NOMEM;
    if (!code) {
        memcpy(left_out, w.sx, (size_t)(n - t0 + 1) * sizeof *left_out);
        code = walk_to(&w, &c, horizon - t0, base, threshold, all_open, t0,
                       x, scan_guard);
    }
    if (!code) {
        size_t size = (size_t)(horizon - t0 + 1) * sizeof *r_out;
        memcpy(r_out, w.r, size);
        memcpy(gamma_out, w.sx, size);
    }
    code = report(&c, t0, code, rep);
    walk_release(&w);
    return code;
}

/* Whether the edge of `key` is open under the sampler (base, threshold,
 * all_open): box_edges' own copy of the splitmix64 mix of lattice.py, so
 * that the judge runs no walk code. */
static uint8_t box_open(uint64_t base, uint64_t threshold, int all_open,
                        uint64_t key)
{
    uint64_t z = base + key * GOLDEN;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    z ^= z >> 31;
    return all_open || z < threshold;
}

/* The edge statuses of a box of `height` rows of `width` cells, row j at
 * level t_min + j from column lefts[j], with lefts holding height + 1
 * columns, as oracle.BoxConfig holds them: ur and ul, height rows of width
 * bytes, get each site's up-right and up-left status at its cell and 0 at
 * every other cell; entry[j] gets the status of the up-right edge from the
 * site just left of row j when that edge lands on row j + 1, else 0. */
void box_edges(int64_t height, int64_t width, int64_t t_min,
               const int64_t *lefts, uint64_t base, uint64_t threshold,
               int all_open, uint8_t *ur, uint8_t *ul, uint8_t *entry)
{
    for (int64_t j = 0; j < height; j++) {
        int64_t t = t_min + j, left = lefts[j];
        uint64_t right_hi = (uint64_t)(2 * t + 1) << 32;
        uint64_t left_hi = (uint64_t)(2 * t) << 32;
        uint8_t *u = ur + j * width, *v = ul + j * width;
        memset(u, 0, (size_t)width);
        memset(v, 0, (size_t)width);
        for (int64_t c = (left + t) & 1; c < width; c += 2) {
            uint64_t x = (uint64_t)(left + c + X_BIAS);
            u[c] = box_open(base, threshold, all_open, right_hi | x);
            v[c] = box_open(base, threshold, all_open, left_hi | x);
        }
        /* its up-right edge lands on row j + 1's first site unless the
         * wall steps right */
        int64_t source = left - 1 - ((left - 1 + t) & 1);
        entry[j] = source + 1 >= lefts[j + 1]
                   && box_open(base, threshold, all_open,
                               right_hi | (uint64_t)(source + X_BIAS));
    }
}

/* dp_box's return codes, oracle's refusal codes */
enum { DP_OK = 0, DP_SEED_WALL, DP_WALL, DP_NO_PATH, DP_TOP, DP_UNSURE,
       DP_LOST };

/* Cell i of a row of words. */
static int cell(const uint64_t *row, int64_t i)
{
    return row[i >> 6] >> (i & 63) & 1;
}

/* `count` <= 8 byte cells, each 0 or 1, as the low bits of a word, cell i
 * to bit i.  The cells are read as one word, byte i holding cell i, and one
 * multiply moves byte i's bit to bit 56 + i: the multiplier's bits sit at
 * 7, 14, ..., 56, so no two products share a bit and none carries. */
static uint64_t pack8(const uint8_t *cells, size_t count)
{
    uint64_t v = 0;
    memcpy(&v, cells, count);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v * 0x0102040810204080ULL >> 56;
}

/* A row of `width` byte cells as words: cell 64 k + i to bit i of word k. */
static void pack_row(const uint8_t *row, int64_t width, uint64_t *to)
{
    int64_t full = width / 8;
    memset(to, 0, (size_t)(width + 63) / 64 * sizeof *to);
    for (int64_t b = 0; b < full; b++)
        to[b >> 3] |= pack8(row + 8 * b, 8) << (8 * (b & 7));
    if (width % 8)
        to[full >> 3] |= pack8(row + 8 * full, (size_t)(width % 8))
                         << (8 * (full & 7));
}

/* The number of cells up to and including the row's rightmost set one;
 * __builtin_clzll is a GCC and Clang builtin. */
static int64_t row_length(const uint64_t *row, int64_t words)
{
    for (int64_t k = words - 1; k >= 0; k--)
        if (row[k])
            return 64 * k + 64 - __builtin_clzll(row[k]);
    return 0;
}

/* to = ((from & ur) << 2 | (from & ul)) >> drop, for drop in {0, 1, 2},
 * with its last word masked by `top`. */
static void dp_step(const uint64_t *from, const uint64_t *ur,
                    const uint64_t *ul, int64_t words, int drop,
                    uint64_t top, uint64_t *to)
{
    int up = 2 - drop;
    uint64_t a_prev = 0;
    for (int64_t k = 0; k < words; k++) {
        uint64_t a = from[k] & ur[k], b = from[k] & ul[k];
        uint64_t w = a << up | b >> drop;
        if (up)
            w |= a_prev >> (64 - up);
        if (drop && k + 1 < words)
            w |= (from[k + 1] & ul[k + 1]) << (64 - drop);
        to[k] = w;
        a_prev = a;
    }
    to[words - 1] &= top;
}

/* The certified DP of a box `width` >= 2 columns wide over `n` levels from
 * t_min, row j starting at column lefts[j], with the seed row's cells up to
 * `start`.  ur and ul hold n rows of width byte cells and entry n flags, as
 * box_edges writes them; each row is packed into `rows`, room for two rows
 * of (width + 63) / 64 words, as the DP reaches it.  lower and upper hold
 * n + 1 rows of that many words.  Writes the bit lengths of lower's rows
 * into lengths[0:n + 1] and of upper's into lengths[n + 1:2 n + 2], and
 * the path into path[0:n + 1].  Returns a refusal code or DP_OK; at[0:2]
 * get the level and the column that DP_NO_PATH, DP_UNSURE and DP_LOST
 * name.  On DP_SEED_WALL and DP_WALL
 * nothing past the refused row is written. */
int dp_box(int64_t n, int64_t width, int64_t t_min, const int64_t *lefts,
           int64_t start, const uint8_t *ur, const uint8_t *ul,
           const uint8_t *entry, uint64_t *rows, uint64_t *lower,
           uint64_t *upper, int64_t *lengths, int64_t *path, int64_t *at)
{
    int64_t words = (width + 63) / 64;
    uint64_t top = width % 64 ? ((uint64_t)1 << width % 64) - 1 : ~0ULL;
    memset(lower, 0, (size_t)words * sizeof *lower);
    /* the seed row: every cell up to start at the parity of a site */
    for (int64_t c = (lefts[0] + t_min) & 1; c <= start; c += 2) {
        if (c >= width - 2)
            return DP_SEED_WALL;
        lower[c >> 6] |= (uint64_t)1 << (c & 63);
    }
    memcpy(upper, lower, (size_t)words * sizeof *upper);
    for (int64_t j = 0; j < n; j++) {
        int drop = (int)(1 + lefts[j + 1] - lefts[j]);
        uint64_t *u = rows, *v = rows + words;
        uint64_t *hi = upper + (j + 1) * words;
        pack_row(ur + j * width, width, u);
        pack_row(ul + j * width, width, v);
        dp_step(lower + j * words, u, v, words, drop, top,
                lower + (j + 1) * words);
        dp_step(upper + j * words, u, v, words, drop, top, hi);
        /* the entry edge lands on row j + 1's first site, cell 0 or 1 */
        if (entry[j])
            hi[0] |= (uint64_t)1 << ((lefts[j + 1] + t_min + j + 1) & 1);
        if (cell(hi, width - 2) | cell(hi, width - 1))
            return DP_WALL;
    }
    for (int64_t j = 0; j <= n; j++) {
        lengths[j] = row_length(lower + j * words, words);
        lengths[n + 1 + j] = row_length(upper + j * words, words);
    }
    int64_t lo_top = lengths[n], hi_top = lengths[2 * n + 1];
    at[0] = n;
    if (lo_top == 0 && hi_top == 0)
        return DP_NO_PATH;
    if (lo_top == 0 || lo_top != hi_top)
        return DP_TOP;
    int64_t y = lefts[n] + lo_top - 1;
    path[n] = y;
    for (int64_t j = n - 1; j >= 0; j--) {
        const uint64_t *lo = lower + j * words, *hi = upper + j * words;
        const uint8_t *edge[2] = {ul + j * width, ur + j * width};
        int moved = 0;
        at[0] = j;
        /* the up-left edge from y + 1 first, then the up-right one */
        for (int k = 0; k < 2 && !moved; k++) {
            int64_t x = y + 1 - 2 * k, c = x - lefts[j];
            if (c < 0 || c >= width)
                continue;
            if (cell(lo, c) != cell(hi, c)) {
                at[1] = x;
                return DP_UNSURE;
            }
            if (cell(lo, c) && edge[k][c]) {
                y = x;
                moved = 1;
            }
        }
        if (!moved)
            return DP_LOST;
        path[j] = y;
    }
    return DP_OK;
}
