/* The exploration walk of explore.py, and its judge, the certified DP of
 * oracle.py: the only bodies of both in the package.  Their Python
 * references live with the tests, and each entry is tested against one.
 *
 * Each walk entry makes, runs and frees its walks inside one call, and
 * hands back a few numbers or fills arrays the caller owns.  One walk
 * is the splitmix64 edge sampler (base and threshold of the Config), the
 * depth-first stack, the count of examined edges, the scan offset and the
 * scan guard, and the right-boundary values r.  No edge status is kept:
 * an edge is sampled where it is examined, and no edge is examined twice.
 * A site's out-edges are examined only while it is on the stack; it
 * leaves the stack only after both are, and it is then dead, so no later
 * edge enters it.  walk_to makes the same steps as
 * ExplorationCluster.advance_level: the same scan order, the same packed
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
 * A walk is its block, walk_t, and its cursor, cursor_t: the top of the
 * stack, the top's column x and state st (how many of its out-edges have
 * been examined), the level it searches, the scan offset and the count of
 * examined edges.  walk_to reads the cursor and the block into locals on
 * entry, and writes the cursor back once, on return; while it runs, st
 * stands for state[top], which is written only when the top pushes.  The
 * sampler, t0, the origin and the guard come in as arguments.  So nothing
 * the loop reads lives behind a pointer that its stores can reach.  A
 * store through the uint8_t state may alias any object: were the cursor
 * and the constants fields of walk_t, the compiled loop would reload them
 * all after each push and keep n_examined in memory.  A completed level is
 * a branch inside the loop, not a return to an outer one, and the only
 * place a level completes: it writes r, moves a walk that has outgrown
 * its block to a larger one, opens the next level's sx slot, and stops
 * the walk at the last level asked for, or at the first level where
 * x <= bound on a walk given a bound.
 *
 * The level a completed level opens is open in the other sense too:
 * nothing is dead on it, as sx[target] holds INT64_MAX, so an open edge
 * from the top always pushes.  So from each completed level walk_to runs
 * a tighter loop while the top stays one level below the target with its
 * state 0: it samples the up-right edge, then the up-left one, pushes the
 * first that is open and closes the level, with no dead-column test.  It
 * carries z = base + key * GOLDEN of the top's up-right edge from level
 * to level, adding the key's step times GOLDEN: the key steps by 2**33 + 1
 * on an up-right push and by 2**33 - 1 on an up-left one, and the up-left
 * key is 2**32 below the up-right one.  That is pack's key wherever
 * |x| < 2**31, the domain that lattice.X_BIAS documents.  The first pop,
 * with both out-edges closed, hands the top back to the general loop.
 *
 * Every walk keeps r, sx and state in one block, with room for a number
 * of levels and the sx slot of the level after them, and one free
 * releases it.  walk_breaks walks one start to its break-point sums, and
 * walk_bounds one start to its boundaries at two levels: their target
 * level is known up front, so the block has room for it and never moves.
 * walk_chain's walks start with room for FIRST_LEVELS levels, or fewer if
 * the target level is nearer, as a subcritical walk may trip its guard far
 * below a target level too high to allocate.  A walk that outgrows its
 * block moves to one twice its size, and one call reuses its two blocks
 * for every walk it makes.  glibc raises its trim threshold to twice the
 * largest mapped block freed, so the next call's block of the same size
 * comes from the heap, and stays there when freed; three buffers of the
 * walk's size, freed one by one, together pass that threshold, and were
 * handed back to the kernel and faulted in again on every call.
 *
 * walk_breaks finds the break levels as break_point_arrays of
 * tests/_references.py finds them on the Python walk's boundaries.  Level
 * j in [0, n - margin] is a break level when r[j] equals sx[j] of the
 * stack frozen at level n + margin; the increments (X, tau) between
 * consecutive break levels are the records of regen.RegenAccumulator,
 * summed here into the six sums it takes.  Every sum is an exact integer.
 *
 * walk_chain walks equal-time starts x_0 < ... < x_{k-1} at t0 to a
 * target level, and finds for each start i >= 1 the first level n with
 * r_i(n) <= r_{i-1}(n), if there is one.  r_x(n) is the rightmost site at
 * level n reached from the half-line (-inf, x] at t0, so it does not
 * decrease in x, and at that level r_i(n) = r_{i-1}(n).  From there the
 * two are equal for good (Durrett, Ann. Probab. 1984): an open path from
 * the right half-line to a site at or left of r_{i-1}(n) starts right of
 * the left walk's path to r_{i-1}(n) and ends at or left of it, so the two
 * share a site, and the left half-line reaches every site that the right
 * one reaches at level n, hence at every later level.  So the number of
 * distinct r at the target level, the eta of the batteries, is one plus
 * the number of starts that never stop.
 *
 * The walks meet only in that stop test, so each runs in one walk_to
 * call, from the left, on one shared buffer that holds r of the walk just
 * left of the next one.  Walk 0 runs to the target level with the buffer
 * as its r, as a walk that cannot get there must still trip its guard.
 * Walk i then runs bounded by the buffer, and stops at the first level j
 * it completes with x <= buf[j]; it copies its own r into buf[0:j), and
 * past j the buffer holds r of its left neighbour, which equals its own
 * there.  walk_to writes r[j] before it tests bound[j], so a bounded walk
 * keeps its own r and copies it: it cannot walk on the buffer.  A cap
 * ends the chain once the starts that never stop bring eta to it.
 *
 * A level by level lockstep of the walks advances them from the left at
 * each level, each up to its stop level, and so raises guard trips lowest
 * level first, then leftmost start; the chain raises the same trip.  Each
 * walk runs only up to the lowest last complete level of the walks left
 * of it that tripped: the lockstep reaches their trips before any higher
 * level of its own.  Below that level a trip of its own comes first, and
 * its last complete level then bounds the walks right of it.  Once a walk
 * has tripped, the cap no longer ends the chain, so every start is walked.
 * With no trip, the report is that of the rightmost walk that reaches the
 * target level without stopping: walk 0's when every other start stops.
 * For two starts the chain is the pair of the survival curve.
 *
 * walk_chain runs the chain on a batch of replicas in replica order, so
 * that a batch costs one call from Python: the replicas differ in their
 * base only.  config_bases fills the bases of such a batch, as
 * lattice.replica_bases gives them.  walk_chain
 * walks no replica past the first whose chain trips, so a batch raises
 * what its replicas would raise walked one by one.
 *
 * Keys are the packed keys of lattice.py taken mod 2**64, which is all the
 * sampler reads of them.
 *
 * dp_box and the ladder are the judge of these walks, and use no walk
 * code: no is_open, no pack, no walk_t.  They hash each edge with their
 * own copy of the splitmix64 mix of lattice.py, box_open, under the
 * Config's base, threshold and all-open flag.
 *
 * dp_box is the certified DP of oracle.py on one box, the only DP body.
 * Its edges come in 64-bit words, bit i of word k standing for cell 64 k +
 * i of a row, one row at a time as the DP reaches it, hashed straight into
 * the words.  It fills the lower and upper tables row by row, as the
 * numpy-row reference DP of tests/test_oracle.py does: one
 * level is ((lo & ur) << 2 | (lo & ul)) >> drop, masked to the box width,
 * which is an up-right move by 2 - drop cells and an up-left one by -drop,
 * done word by word with the bits a shift moves past a word's edge carried
 * over from its neighbour.  The upper table also takes the entry bit at the
 * first site of the next row.  A row of the upper table with a cell in the
 * box's two rightmost columns refuses the box.  Then it writes each row's
 * bit length in both tables, from which oracle reads the level maxima, and
 * backtracks the rightmost path from the top level's maximum, trying the
 * up-left edge from y + 1 before the up-right one from y - 1, as that
 * reference does.  The return code is oracle's refusal code, or 0.
 *
 * The ladder is the whole of oracle's ladder for one walk from (0, 0): it
 * tests that the walk is a lattice walk, lays its boxes, the bands along
 * its path l and then the last rectangle, and judges each with dp_box on
 * hashed rows, in a scratch block that it grows, until a box gives an
 * answer.  Per box, a wall refusal, or a level whose lower and upper maxima
 * differ, refuses the box (JUDGE_NARROW).  A box that dies, with both
 * tables empty at some level, judges only the paths inside it: it is
 * JUDGE_DEAD unless l steps left of a row's wall, when it refuses.  Else
 * the certified maxima are compared with the walk's r (JUDGE_RIGHT on any
 * difference, a length other than n + 1 included), and the backtracked
 * path, which certified maxima certify (oracle's docstring proves it), so
 * that dp_box cannot have refused it, is compared with l (JUDGE_LEFT).  It
 * reports each box it judged, its walls and its verdict.  It too runs no
 * walk code: it reads the walk's two arrays and the sampler, nothing else.
 *
 * Two entries run the ladder.  judge_walk judges one walk that the caller
 * hands in, on scratch that it makes and frees.  check_walks is check's
 * walks on a batch of replicas, which differ in their base only: each is
 * walked from (0, 0) to level n by walk_to on one block, as walk_bounds
 * walks it, and its r and its stack sx, which is its l, are judged in
 * place, the ladders of all of them sharing one scratch block.  Like
 * walk_chain it stops at the first replica, in order, whose walk trips or
 * runs out of memory, or whose ladder runs out of memory, so a batch
 * raises what its replicas would raise walked and judged one by one.  The
 * ladder is a static body, and the ladder's call of dp_box, an
 * exported function, goes through the PLT, whose slots lie before the
 * walks' code.  So neither entry calls the other: a call of the exported
 * judge_walk would add a PLT slot and move every walk by 16 bytes, and a
 * judge that called no exported function would move every walk by one
 * slot the other way.
 * Build: cc -O2 -std=c99 -shared -fPIC.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define X_BIAS ((int64_t)1 << 31)
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
/* the most levels a walk of walk_chain has room for at its start */
#define FIRST_LEVELS 1024
/* z = base + key * GOLDEN steps by these on the open level: from the top's
 * up-right edge to its up-left one, and to the next top's up-right edge
 * after an up-right or an up-left push */
#define UL_Z ((1ULL << 32) * GOLDEN)
#define UR_STEP (((2ULL << 32) + 1) * GOLDEN)
#define UL_STEP (((2ULL << 32) - 1) * GOLDEN)

enum { WALK_OK = 0, WALK_GUARD = 1, WALK_NOMEM = 2 };

/* walk_chain's stop entry for a start past the one at which eta reached
 * the cap: it is not walked */
#define CHAIN_CUT (-2)

/* A walk's one block: the stack's columns sx, then r, then the stack's
 * states, cap entries each. */
typedef struct {
    int64_t *r;
    int64_t *sx;               /* the block's start */
    uint8_t *state;
    int64_t cap;
} walk_t;

/* Where a walk is: the top of its stack, the top's column x and state st,
 * the level it searches, counted from t0, and its two counts. */
typedef struct {
    int64_t top, x, target, scan_offset, n_examined;
    int st;
} cursor_t;

/* Move *w, an empty walk or one that has outgrown its block, to a new
 * block with room for `levels` levels past its start and the sx slot of
 * the level after them, and free its old block.  Returns 0 if out of
 * memory or if the block's size would overflow, with *w unchanged. */
static int walk_grow(walk_t *w, int64_t levels)
{
    if ((uint64_t)levels >= SIZE_MAX / 32)
        return 0;
    int64_t cap = levels + 2;
    int64_t *sx = malloc((size_t)cap * (2 * sizeof(int64_t) + 1));
    if (!sx)
        return 0;
    walk_t b = {sx + cap, sx, (uint8_t *)(sx + 2 * cap), cap};
    if (w->cap) {
        memcpy(b.sx, w->sx, (size_t)w->cap * sizeof *b.sx);
        memcpy(b.r, w->r, (size_t)w->cap * sizeof *b.r);
        memcpy(b.state, w->state, (size_t)w->cap);
    }
    free(w->sx);
    *w = b;
    return 1;
}

/* Start the walk of the half-line at (origin_x, t0) on the block of *w,
 * with the cursor *c. */
static void walk_start(walk_t *w, cursor_t *c, int64_t origin_x)
{
    *c = (cursor_t){0, origin_x, 1, 0, 0, 0};
    w->r[0] = w->sx[0] = origin_x;
    w->sx[1] = INT64_MAX; /* nothing is dead at the new level */
}

/* Whether the edge whose key k gives z = base + k * GOLDEN is open under
 * threshold and all_open. */
static int is_open(uint64_t z, uint64_t threshold, int all_open)
{
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
 * t0) with its guard; with a bound, stop too at the first level j it
 * completes with x <= bound[j], which must hold up to `last`.  Stops early
 * on the guard or on failed allocation, after which the walk must not go
 * on.  The cursor is read into locals on entry and written back on
 * return.  always_inline, a GCC and Clang attribute, so that each caller
 * gets a loop of its own, which drops the bound test where bound is NULL:
 * GCC at -O2 would otherwise call one shared loop. */
__attribute__((always_inline))
static inline int walk_to(walk_t *w, cursor_t *c, int64_t last,
                          uint64_t base, uint64_t threshold, int all_open,
                          int64_t t0, int64_t origin_x, int64_t scan_guard,
                          const int64_t *bound)
{
    if (c->target > last)
        return WALK_OK;
    int64_t top = c->top, x = c->x, target = c->target;
    int64_t scan_offset = c->scan_offset, n_examined = c->n_examined;
    int st = c->st;
    walk_t b = *w;
    int code = WALK_OK;
    for (;;) {
        if (st < 2) {
            int d = st == 0; /* up-right first, then up-left */
            st++;
            n_examined++;
            if (!is_open(base + pack(2 * (t0 + top) + d, x) * GOLDEN,
                         threshold, all_open))
                continue;
            int64_t cx = d ? x + 1 : x - 1;
            /* above the top, sx holds the least dead column */
            if (cx >= b.sx[top + 1])
                continue;
            b.state[top++] = (uint8_t)st;
            b.sx[top] = x = cx;
            st = 0;
            if (top < target)
                continue;
            /* the level is complete; up the open levels it opens, each
             * open edge from the top pushes, until the first pop */
            uint64_t z = base + pack(2 * (t0 + top) + 1, x) * GOLDEN;
            for (;;) {
                int64_t j = target++; /* level j is complete */
                b.r[j] = x;
                if (j + 2 > b.cap) { /* j = cap - 1: twice the block */
                    if (!walk_grow(w, 2 * j)) {
                        code = WALK_NOMEM;
                        goto done;
                    }
                    b = *w;
                }
                b.sx[j + 1] = INT64_MAX; /* nothing is dead at the new level */
                if (j >= last || (bound && x <= bound[j]))
                    goto done;
                /* the open level: up-right first, then up-left */
                n_examined++;
                int s = 1;
                uint64_t step = UR_STEP;
                int64_t dx = 1;
                if (!is_open(z, threshold, all_open)) {
                    n_examined++;
                    if (!is_open(z - UL_Z, threshold, all_open)) {
                        st = 2; /* both closed: the general loop pops */
                        break;
                    }
                    s = 2;
                    step = UL_STEP;
                    dx = -1;
                }
                z += step;
                x += dx;
                b.state[top++] = (uint8_t)s;
                b.sx[top] = x;
            }
        } else if (top > 0) {
            top--; /* sx[top + 1] stays, the level's least dead column */
            x = b.sx[top];
            st = b.state[top];
        } else {
            /* every path from the start site is dead: restart two columns
             * left */
            scan_offset++;
            if (scan_offset >= scan_guard) {
                code = WALK_GUARD;
                break;
            }
            b.sx[0] = x = origin_x - 2 * scan_offset;
            st = 0;
        }
    }
done:
    *c = (cursor_t){top, x, target, scan_offset, n_examined, st};
    return code;
}

/* Every walk entry's report, rep[0:3]: the scan offset of the walk at c,
 * the last level it completed and the edges it examined; the first two
 * name a guard trip. */
static void report(const cursor_t *c, int64_t t0, int64_t *rep)
{
    rep[0] = c->scan_offset;
    rep[1] = t0 + c->target - 1;
    rep[2] = c->n_examined;
}

/* walk_chain on one replica, on the sampler (base, threshold, all_open)
 * and the two walks w[0:2], whose blocks it reuses: w[0]'s r is the
 * shared buffer.  Writes stops[0:k - 1] and, into *stop, the cursor
 * of the walk whose report the replica gives.  Returns the code of the
 * walk that trips first in the lockstep's order, or of one out of memory,
 * or 0. */
static int chain(walk_t *w, const int64_t *xs, int64_t k, int64_t t0,
                 uint64_t base, uint64_t threshold, int all_open,
                 int64_t scan_guard, int64_t last, int64_t cap,
                 int64_t *stops, cursor_t *stop)
{
    cursor_t c;
    walk_start(&w[0], &c, xs[0]);
    int code = walk_to(&w[0], &c, last, base, threshold, all_open, t0, xs[0],
                       scan_guard, NULL);
    *stop = c;
    if (code == WALK_NOMEM)
        return code;
    /* the lowest last complete level of the walks that tripped, else last */
    int64_t lim = c.target - 1, eta = 1;
    int64_t *buf = w[0].r;
    for (int64_t i = 1; i < k; i++) {
        if (!code && eta == cap) {
            for (; i < k; i++)
                stops[i - 1] = CHAIN_CUT;
            break;
        }
        if (xs[i] <= buf[0]) {
            stops[i - 1] = 0;
            continue;
        }
        walk_start(&w[1], &c, xs[i]);
        int walked = walk_to(&w[1], &c, lim, base, threshold, all_open, t0,
                             xs[i], scan_guard, buf);
        int64_t j = c.target - 1, copy = j + 1;
        if (walked) {
            /* below lim + 1, so below every trip to its left */
            *stop = c;
            if (walked == WALK_NOMEM)
                return walked;
            code = walked;
            lim = j;
        } else if (c.x <= buf[j]) {
            stops[i - 1] = copy = j;
        } else {
            stops[i - 1] = -1;
            if (!code) {
                eta++;
                *stop = c;
            }
        }
        if (i + 1 < k) /* no walk reads the last one's r */
            memcpy(buf, w[1].r, (size_t)copy * sizeof *buf);
    }
    return code;
}

/* The chain of the equal-time starts xs[0:k], k >= 1, from t0 to `level`
 * on `count` configurations, replica n on bases[n], all under one
 * threshold.  stops[n (k - 1) + i - 1] gets walk i's stop level on replica
 * n, counted from t0: the first level j with r_i(j) <= r_{i-1}(j), or -1
 * if it reaches `level` without stopping, or CHAIN_CUT past the walk that
 * brings eta to `cap` (none if cap is 0).  Stops at the first replica, in
 * order, whose chain does not return 0, and returns that code; its row and
 * those past it are not all written.  rep[0:3] gets the report of the
 * last replica's walk that tripped first, or of its rightmost walk that
 * reached the level, and rep[3] that replica's index. */
int walk_chain(const int64_t *xs, int64_t k, int64_t t0,
               const uint64_t *bases, int64_t count, uint64_t threshold,
               int all_open, int64_t scan_guard, int64_t level, int64_t cap,
               int64_t *stops, int64_t *rep)
{
    walk_t w[2] = {{0}, {0}};
    cursor_t stop;
    int64_t first = level - t0 < FIRST_LEVELS ? level - t0 : FIRST_LEVELS;
    int code = walk_grow(&w[0], first) & walk_grow(&w[1], first)
               ? WALK_OK : WALK_NOMEM;
    for (int64_t n = 0; n < count && !code; n++) {
        code = chain(w, xs, k, t0, bases[n], threshold, all_open, scan_guard,
                     level - t0, cap, stops + n * (k - 1), &stop);
        report(&stop, t0, rep);
        rep[3] = n;
    }
    free(w[0].sx);
    free(w[1].sx);
    return code;
}

/* The break-point sums of the walk from (x, t0) to level t0 + n + margin,
 * for 0 < margin <= n: over the break levels j in [0, n - margin], the
 * increments X = r[j] - r[i] and tau = j - i from each break level i to
 * the next one j, summed into out[0:6] as the count, sum X, sum tau,
 * sum X^2, sum X tau and sum tau^2; r[n] into out[6].  Returns the walk's
 * code, and the walk's report in rep[0:3]. */
int walk_breaks(int64_t x, int64_t t0, uint64_t base, uint64_t threshold,
                int all_open, int64_t scan_guard, int64_t n, int64_t margin,
                int64_t *out, int64_t *rep)
{
    walk_t w = {0};
    cursor_t c;
    if (!walk_grow(&w, n + margin))
        return WALK_NOMEM;
    walk_start(&w, &c, x);
    int code = walk_to(&w, &c, n + margin, base, threshold, all_open, t0, x,
                       scan_guard, NULL);
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
    report(&c, t0, rep);
    free(w.sx);
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
    walk_t w = {0};
    cursor_t c;
    if (!walk_grow(&w, horizon - t0))
        return WALK_NOMEM;
    walk_start(&w, &c, x);
    int code = walk_to(&w, &c, n - t0, base, threshold, all_open, t0, x,
                       scan_guard, NULL);
    if (!code) {
        memcpy(left_out, w.sx, (size_t)(n - t0 + 1) * sizeof *left_out);
        code = walk_to(&w, &c, horizon - t0, base, threshold, all_open, t0,
                       x, scan_guard, NULL);
    }
    if (!code) {
        size_t size = (size_t)(horizon - t0 + 1) * sizeof *r_out;
        memcpy(r_out, w.r, size);
        memcpy(gamma_out, w.sx, size);
    }
    report(&c, t0, rep);
    free(w.sx);
    return code;
}

/* The sampler bases of `count` configurations of one seed, as
 * lattice.Config forms its _base: out[k] is lattice.mix64 of seed_mix +
 * (stream + k stride) GOLDEN, all mod 2**64, where seed_mix is mix64 of
 * the seed and stream + k stride the stream id of configuration k.  Its
 * own copy of the mix, and below the walks: sharing is_open's moved the
 * registers of every walk loop that GCC inlines is_open into, and placed
 * above the walks it moved their code and so the alignment of their
 * loops.  The judge comes after it, so that changes to the judge move
 * neither. */
void config_bases(uint64_t seed_mix, uint64_t stream, uint64_t stride,
                  int64_t count, uint64_t *out)
{
    for (int64_t k = 0; k < count; k++) {
        uint64_t z = seed_mix + (stream + (uint64_t)k * stride) * GOLDEN;
        z = (z ^ (z >> 30)) * MIX1;
        z = (z ^ (z >> 27)) * MIX2;
        out[k] = z ^ (z >> 31);
    }
}

/* Whether the edge of `key` is open under the sampler (base, threshold,
 * all_open): the judge's own copy of the splitmix64 mix of lattice.py, so
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

/* The key of the edge from (x, t), up-right for d = 1 and up-left for
 * d = 0, as lattice.py packs it, mod 2**64. */
static uint64_t box_key(int64_t t, int d, int64_t x)
{
    return (uint64_t)(2 * t + d) << 32 | (uint64_t)(x + X_BIAS);
}

/* Whether the up-right edge from the site just left of a row at level t
 * that starts at column `left` is open and lands on the next row, which
 * starts at column `next`: it lands on that row's first site unless the
 * wall steps right. */
static uint8_t entry_open(uint64_t base, uint64_t threshold, int all_open,
                          int64_t t, int64_t left, int64_t next)
{
    int64_t source = left - 1 - ((left - 1 + t) & 1);
    return source + 1 >= next
           && box_open(base, threshold, all_open, box_key(t, 1, source));
}

/* the DP's return codes, oracle's refusal codes */
enum { DP_OK = 0, DP_SEED_WALL, DP_WALL, DP_NO_PATH, DP_TOP, DP_UNSURE,
       DP_LOST };

/* Cell i of a row of words. */
static int cell(const uint64_t *row, int64_t i)
{
    return row[i >> 6] >> (i & 63) & 1;
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

/* A row of a box at level t from column `left`, `width` cells wide, with
 * its edges hashed under the sampler (base, threshold, all_open) into
 * words: the up-right and up-left status of each site whose cell is set in
 * `from` to that cell's bit of ur and ul, 0 at the other cells.  The DP
 * reads a row's edges only through its own row, ANDed with them, and from
 * is the upper table's row, which holds the lower table's; so the edges of
 * the cells left out are never read, and only reached sites are hashed. */
static void hash_row(int64_t t, int64_t left, int64_t width, uint64_t base,
                     uint64_t threshold, int all_open, const uint64_t *from,
                     uint64_t *ur, uint64_t *ul)
{
    for (int64_t k = 0; k < (width + 63) / 64; k++) {
        uint64_t cells = from[k], u = 0, v = 0;
        while (cells) {
            int i = __builtin_ctzll(cells); /* a GCC and Clang builtin */
            int64_t x = left + 64 * k + i;
            cells &= cells - 1;
            u |= (uint64_t)box_open(base, threshold, all_open,
                                    box_key(t, 1, x)) << i;
            v |= (uint64_t)box_open(base, threshold, all_open,
                                    box_key(t, 0, x)) << i;
        }
        ur[k] = u;
        ul[k] = v;
    }
}

/* The certified DP of a box `width` >= 2 columns wide over `n` levels from
 * t_min, row j starting at column lefts[j], with the seed row's cells up to
 * `start`.  Each row's edges and entry flag are hashed under the sampler
 * (base, threshold, all_open) as the DP reaches the row, into `rows`, room
 * for two rows of (width + 63) / 64 words.  lower and upper hold n + 1
 * rows of that many words.  Writes the bit lengths of lower's rows into
 * lengths[0:n + 1] and of upper's into lengths[n + 1:2 n + 2], and the path
 * into path[0:n + 1].
 * Returns a refusal code or DP_OK; at[0:2] get the level and the column
 * that DP_NO_PATH, DP_UNSURE and DP_LOST name.  On DP_SEED_WALL and
 * DP_WALL nothing past the refused row is written. */
int dp_box(int64_t n, int64_t width, int64_t t_min, const int64_t *lefts,
           int64_t start, uint64_t base, uint64_t threshold, int all_open,
           uint64_t *rows, uint64_t *lower, uint64_t *upper, int64_t *lengths,
           int64_t *path, int64_t *at)
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
        hash_row(t_min + j, lefts[j], width, base, threshold, all_open,
                 upper + j * words, u, v);
        dp_step(lower + j * words, u, v, words, drop, top,
                lower + (j + 1) * words);
        dp_step(upper + j * words, u, v, words, drop, top, hi);
        /* the entry edge lands on row j + 1's first site, cell 0 or 1 */
        if (entry_open(base, threshold, all_open, t_min + j, lefts[j],
                       lefts[j + 1]))
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
        int moved = 0;
        at[0] = j;
        /* the up-left edge from y + 1 first, then the up-right one */
        for (int d = 0; d < 2 && !moved; d++) {
            int64_t x = y + 1 - 2 * d, c = x - lefts[j];
            if (c < 0 || c >= width)
                continue;
            if (cell(lo, c) != cell(hi, c)) {
                at[1] = x;
                return DP_UNSURE;
            }
            if (cell(lo, c)
                && box_open(base, threshold, all_open,
                            box_key(t_min + j, d, x))) {
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

/* judge_walk's outcomes, oracle's outcome strings in order, and its code
 * for scratch it cannot allocate */
enum { JUDGE_OK = 0, JUDGE_NARROW, JUDGE_DEAD, JUDGE_RIGHT, JUDGE_LEFT,
       JUDGE_NOMEM };

/* The verdict on a walk from (0, 0) to level n, its right boundary r,
 * right_len values, and its rightmost path l, left_len values, of the box
 * from level 0 to n, `width` columns wide, row j from column lefts[j],
 * with its edges hashed under the sampler (base, threshold, all_open).
 * scratch holds 3 (n + 1) + 2 (n + 2) (width + 63) / 64 words: the bit
 * lengths and the path, then dp_box's two row buffers and two tables.
 * Returns a JUDGE_ outcome; where every level's maxima certify, dp_box has
 * certified the path too (oracle's docstring proves it). */
static int judge_rung(int64_t n, int64_t width, const int64_t *lefts,
                      uint64_t base, uint64_t threshold, int all_open,
                      const int64_t *right, int64_t right_len,
                      const int64_t *left, int64_t left_len, int64_t *scratch)
{
    int64_t words = (width + 63) / 64, at[2];
    int64_t *lengths = scratch, *path = lengths + 2 * (n + 1);
    uint64_t *rows = (uint64_t *)(path + n + 1), *lower = rows + 2 * words;
    uint64_t *upper = lower + (n + 1) * words;
    int code = dp_box(n, width, 0, lefts, -lefts[0], base, threshold, all_open,
                      rows, lower, upper, lengths, path, at);
    if (code == DP_SEED_WALL || code == DP_WALL)
        return JUDGE_NARROW;
    for (int64_t j = 0; j <= n; j++) {
        if (lengths[j] != lengths[n + 1 + j])
            return JUDGE_NARROW;
        if (lengths[j] == 0) {
            /* a box that dies judges only the paths inside it */
            for (int64_t i = 0; i < left_len && i <= n; i++)
                if (left[i] < lefts[i])
                    return JUDGE_NARROW;
            return JUDGE_DEAD;
        }
    }
    if (right_len != n + 1)
        return JUDGE_RIGHT;
    for (int64_t j = 0; j <= n; j++)
        if (lefts[j] + lengths[j] - 1 != right[j])
            return JUDGE_RIGHT;
    if (left_len != n + 1)
        return JUDGE_LEFT;
    for (int64_t j = 0; j <= n; j++)
        if (path[j] != left[j])
            return JUDGE_LEFT;
    return JUDGE_OK;
}

/* the first band's columns left of the walk's path */
#define FIRST_MARGIN 2
/* No box this wide or this tall fits in memory; bounding the ladder's
 * columns by it keeps all its arithmetic inside int64_t. */
#define FAR ((int64_t)1 << 59)

/* A walk's verdict on the ladder of oracle: the walk from (0, 0) to level
 * n >= 1 with right boundary r, right_len values, and rightmost path l,
 * left_len values, judged on boxes from level 0 to n under the sampler
 * (base, threshold, all_open).  A lattice walk, whose l is a lattice path
 * from a site (l_0, 0), l_0 <= 0 and even, with l <= r, is judged first on
 * bands: row j spans [l_j - m, l_j + reach + 2], reach = max(max(r - l),
 * -l_0), with m = FIRST_MARGIN doubling while m < 2 n + slack.  The last
 * box is the rectangle [min(min(l, 0) - 2 n - slack, 0), n + 2].  Each
 * box's edges are hashed row by row as its DP reaches them, and the ladder
 * stops at the first box whose verdict is not JUDGE_NARROW or JUDGE_DEAD.
 * The boxes' scratch is *scratch, *cap words, which the ladder replaces
 * by a larger block when a box needs one; the caller frees it.  rep[0]
 * gets the boxes judged, k, and rep[1 + 4 i:5 + 4 i] box i's left and
 * right columns at level 0, 1 for a band or 0 for the rectangle, and its
 * verdict, for i < k <= 63.  Returns the last verdict, or JUDGE_NOMEM, when
 * rep[0] boxes were judged. */
static int ladder(int64_t n, int64_t slack, uint64_t base, uint64_t threshold,
                  int all_open, const int64_t *right, int64_t right_len,
                  const int64_t *left, int64_t left_len, int64_t **scratch,
                  size_t *cap, int64_t *rep)
{
    int walk = n >= 1 && left_len == n + 1 && right_len == n + 1
               && left[0] <= 0 && left[0] % 2 == 0;
    int64_t low = 0;
    uint64_t gap = 0; /* max(r - l), exact where l <= r */
    for (int64_t j = 0; j < left_len; j++) {
        low = left[j] < low ? left[j] : low;
        if (!walk)
            continue;
        uint64_t step = (uint64_t)left[j] - (uint64_t)left[j ? j - 1 : 0];
        walk = left[j] <= right[j] && (!j || step == 1 || step == ~0ULL);
        if ((uint64_t)right[j] - (uint64_t)left[j] > gap)
            gap = (uint64_t)right[j] - (uint64_t)left[j];
    }
    rep[0] = 0;
    if (n < 1 || n > FAR || low < -FAR || (walk && gap > (uint64_t)FAR))
        return JUDGE_NOMEM;
    int64_t reach = 0;
    if (walk)
        reach = -left[0] > (int64_t)gap ? -left[0] : (int64_t)gap;
    /* past 4 FAR either way the ladder is the same, or holds no box that
     * fits */
    int64_t widest = 2 * n + (slack < -4 * FAR ? -4 * FAR
                              : slack > 4 * FAR ? 4 * FAR : slack);
    int64_t margin = FIRST_MARGIN, k = 0;
    int code;
    for (;;) {
        int band = walk && margin < widest;
        /* the last box holds the start (0, 0) however negative the slack */
        int64_t x_min = band ? left[0] - margin
                        : low - widest < 0 ? low - widest : 0;
        int64_t width = band ? margin + reach + 3 : n + 3 - x_min;
        int64_t words = (width + 63) / 64;
        /* 8 (4 (n + 1) + 2 (n + 2) words) bytes, at most 16 (n + 2) (words
         * + 2) */
        if (width > FAR
            || (uint64_t)(words + 2) > SIZE_MAX / 16 / (uint64_t)(n + 2)) {
            code = JUDGE_NOMEM;
            break;
        }
        size_t size = (size_t)(4 * (n + 1) + 2 * (n + 2) * words);
        if (size > *cap) {
            free(*scratch);
            *scratch = malloc(size * sizeof **scratch);
            *cap = *scratch ? size : 0;
            if (!*scratch) {
                code = JUDGE_NOMEM;
                break;
            }
        }
        int64_t *lefts = *scratch;
        for (int64_t j = 0; j <= n; j++)
            lefts[j] = band ? left[j] - margin : x_min;
        code = judge_rung(n, width, lefts, base, threshold, all_open, right,
                          right_len, left, left_len, lefts + n + 1);
        int64_t *rung = rep + 1 + 4 * k++;
        rung[0] = x_min;
        rung[1] = x_min + width - 1;
        rung[2] = band;
        rung[3] = code;
        if (!band || (code != JUDGE_NARROW && code != JUDGE_DEAD))
            break;
        margin *= 2;
    }
    rep[0] = k;
    return code;
}

/* The ladder's verdict on one walk, with its report in rep, as ladder
 * gives them, on scratch that it makes and frees. */
int judge_walk(int64_t n, int64_t slack, uint64_t base, uint64_t threshold,
               int all_open, const int64_t *right, int64_t right_len,
               const int64_t *left, int64_t left_len, int64_t *rep)
{
    int64_t *scratch = NULL;
    size_t cap = 0;
    int code = ladder(n, slack, base, threshold, all_open, right, right_len,
                      left, left_len, &scratch, &cap, rep);
    free(scratch);
    return code;
}

/* check's walks on a batch of replicas, replica i on bases[i], all under
 * one threshold: each walked from (0, 0) to level n >= 1 on one block, its
 * r, corrupted by one at n / 2 on replica `corrupt`, judged with its l, the
 * stack sx, in place on the ladder, on scratch that every replica's ladder
 * reuses.  judged[2 i] gets replica i's verdict and judged[2 i + 1] the
 * boxes its ladder judged.  Stops at the first replica, in order, whose walk
 * trips its guard or runs out of memory, or whose ladder runs out of
 * memory; returns the walk's code or JUDGE_NOMEM, else 0.  rep[0:3] gets
 * the report of the last replica's walk. */
int check_walks(const uint64_t *bases, int64_t count, uint64_t threshold,
                int all_open, int64_t scan_guard, int64_t n, int64_t slack,
                int64_t corrupt, int64_t *judged, int64_t *rep)
{
    walk_t w = {0};
    cursor_t c;
    int64_t boxes[1 + 4 * 64], *scratch = NULL;
    size_t cap = 0;
    int code = walk_grow(&w, n) ? WALK_OK : WALK_NOMEM;
    for (int64_t i = 0; i < count && !code; i++) {
        walk_start(&w, &c, 0);
        code = walk_to(&w, &c, n, bases[i], threshold, all_open, 0, 0,
                       scan_guard, NULL);
        report(&c, 0, rep);
        if (code)
            break;
        if (i == corrupt)
            w.r[n / 2]++;
        int verdict = ladder(n, slack, bases[i], threshold, all_open, w.r,
                             n + 1, w.sx, n + 1, &scratch, &cap, boxes);
        if (verdict == JUDGE_NOMEM)
            code = verdict;
        judged[2 * i] = verdict;
        judged[2 * i + 1] = boxes[0];
    }
    free(scratch);
    free(w.sx);
    return code;
}
