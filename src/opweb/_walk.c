/* Native form of the exploration walk in explore.py.
 *
 * One walk is the state of one _native.NativeCluster: the splitmix64 edge
 * sampler (base and threshold of the Config), the set of dead sites, the
 * depth-first stack, the right-boundary values r, the scan offset and the
 * scan guard.  No edge status is kept: an edge is sampled where it is
 * examined, and no edge is examined twice.  A site's out-edges are
 * examined only while it is on the stack; it leaves the stack only after
 * both are, and it is then dead, so no later edge enters it.  The loop in
 * walk_advance makes the same steps as ExplorationCluster.advance_level:
 * the same scan order, the same packed keys, the same guard.  It folds the
 * up-right and up-left steps into one block on the direction d, where the
 * Python walk keeps the two blocks unrolled because that runs faster
 * there.  The Python walk stays the reference this one is tested against.
 *
 * The walk is the only owner of r and of the left boundary, which is the
 * stack sx[0:stack_len] between calls.  Python reads r_len, stack_len and
 * the two pointers after a call and copies what it needs; a later call may
 * realloc either buffer, so no pointer into them outlives the call that
 * read it.
 *
 * Keys are the packed keys of lattice.py taken mod 2**64, which is all the
 * sampler reads of them.  Build: cc -O2 -std=c99 -shared -fPIC.
 */

#include <stdint.h>
#include <stdlib.h>

#define X_BIAS ((int64_t)1 << 31)
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL

enum { WALK_OK = 0, WALK_GUARD = 1, WALK_NOMEM = 2 };

/* Open-addressing set of 64-bit keys with linear probing; used[i] marks
 * a full slot. */
typedef struct {
    uint64_t *keys;
    uint8_t *used;
    int64_t cap; /* a power of two */
    int64_t len;
    int shift;   /* 64 - log2(cap) */
} table_t;

/* The fields up to `sx` are read from Python (_native._Head): r_len,
 * stack_len, scan_offset, n_examined, r and sx.  Keep the two in step. */
typedef struct {
    int64_t r_len;             /* levels completed + 1 */
    int64_t stack_len;         /* sx[0:stack_len] is the left boundary */
    int64_t scan_offset;
    int64_t n_examined;
    int64_t *r;
    int64_t *sx;
    /* private */
    uint8_t *state;
    int64_t r_cap, stack_cap;
    int64_t t0, origin_x, scan_guard;
    uint64_t base, threshold;
    int all_open;
    int failed; /* the code that stopped the walk for good, or 0 */
    table_t dead;
} walk_t;

static int table_init(table_t *tb, int64_t cap, int shift)
{
    tb->keys = malloc((size_t)cap * sizeof *tb->keys);
    tb->used = calloc((size_t)cap, 1);
    tb->cap = cap;
    tb->len = 0;
    tb->shift = shift;
    return tb->keys && tb->used;
}

static void table_free(table_t *tb)
{
    free(tb->keys);
    free(tb->used);
}

static int64_t table_slot(const table_t *tb, uint64_t key)
{
    int64_t mask = tb->cap - 1;
    int64_t i = (int64_t)((key * GOLDEN) >> tb->shift);
    while (tb->used[i] && tb->keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

/* Make room for one more key; 0 on failed allocation. */
static int table_reserve(table_t *tb)
{
    if (2 * (tb->len + 1) <= tb->cap)
        return 1;
    table_t big;
    if (!table_init(&big, 2 * tb->cap, tb->shift - 1)) {
        table_free(&big);
        return 0;
    }
    for (int64_t i = 0; i < tb->cap; i++)
        if (tb->used[i]) {
            int64_t j = table_slot(&big, tb->keys[i]);
            big.keys[j] = tb->keys[i];
            big.used[j] = 1;
        }
    big.len = tb->len;
    table_free(tb);
    *tb = big;
    return 1;
}

/* Add key to the set; 0 on failed allocation. */
static int table_add(table_t *tb, uint64_t key)
{
    if (!table_reserve(tb))
        return 0;
    int64_t i = table_slot(tb, key);
    tb->len += !tb->used[i];
    tb->keys[i] = key;
    tb->used[i] = 1;
    return 1;
}

static int grow(void **p, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 1;
    int64_t n = *cap;
    while (n < need)
        n *= 2;
    void *q = realloc(*p, (size_t)n * size);
    if (!q)
        return 0;
    *p = q;
    *cap = n;
    return 1;
}

/* Room for `need` stack entries in both sx and state. */
static int grow_stack(walk_t *w, int64_t need)
{
    int64_t cap = w->stack_cap;
    return grow((void **)&w->sx, &cap, need, sizeof *w->sx)
           && grow((void **)&w->state, &w->stack_cap, need, 1);
}

void walk_free(walk_t *w)
{
    if (!w)
        return;
    free(w->r);
    free(w->sx);
    free(w->state);
    table_free(&w->dead);
    free(w);
}

walk_t *walk_new(int64_t origin_x, int64_t t0, uint64_t base,
                 uint64_t threshold, int all_open, int64_t scan_guard)
{
    walk_t *w = calloc(1, sizeof *w);
    if (!w)
        return NULL;
    w->r_cap = w->stack_cap = 64;
    w->r = malloc(64 * sizeof *w->r);
    w->sx = malloc(64 * sizeof *w->sx);
    w->state = malloc(64);
    if (!table_init(&w->dead, 1024, 54) || !w->r || !w->sx || !w->state) {
        walk_free(w);
        return NULL;
    }
    w->origin_x = origin_x;
    w->t0 = t0;
    w->base = base;
    w->threshold = threshold;
    w->all_open = all_open;
    w->scan_guard = scan_guard;
    w->r[0] = w->sx[0] = origin_x;
    w->state[0] = 0;
    w->r_len = w->stack_len = 1;
    return w;
}

static int sample(const walk_t *w, uint64_t key)
{
    uint64_t z = w->base + key * GOLDEN;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    z ^= z >> 31;
    return w->all_open || z < w->threshold;
}

static uint64_t pack(int64_t hi, int64_t x)
{
    return ((uint64_t)hi << 32) | (uint64_t)(x + X_BIAS);
}

/* Explore up to `levels` more levels; stops early, and for good, on the
 * guard or on failed allocation.  On return r_len counts the completed
 * levels. */
int walk_advance(walk_t *w, int64_t levels)
{
    if (w->failed)
        return w->failed;
    for (int64_t done = 0; done < levels; done++) {
        int64_t target = w->r_len;
        int64_t top = target - 1;
        if (!grow_stack(w, target + 1)
            || !grow((void **)&w->r, &w->r_cap, target + 1, sizeof *w->r))
            return w->failed = WALK_NOMEM;
        int64_t *sx = w->sx;
        uint8_t *state = w->state;
        for (;;) {
            uint8_t st = state[top];
            if (st < 2) {
                state[top] = st + 1;
                int64_t x = sx[top];
                int64_t t = w->t0 + top;
                int d = st == 0; /* up-right first, then up-left */
                uint64_t key = pack(2 * t + d, x);
                w->n_examined++;
                if (sample(w, key)) {
                    int64_t cx = d ? x + 1 : x - 1;
                    if (!w->dead.used[table_slot(&w->dead, pack(t + 1, cx))]) {
                        top++;
                        sx[top] = cx;
                        state[top] = 0;
                        if (top == target)
                            break;
                    }
                }
            } else {
                if (!table_add(&w->dead, pack(w->t0 + top, sx[top])))
                    return w->failed = WALK_NOMEM;
                top--;
                if (top < 0) {
                    w->scan_offset++;
                    if (w->scan_offset >= w->scan_guard) {
                        w->stack_len = 0;
                        return w->failed = WALK_GUARD;
                    }
                    sx[0] = w->origin_x - 2 * w->scan_offset;
                    state[0] = 0;
                    top = 0;
                }
            }
        }
        w->stack_len = target + 1;
        w->r[target] = sx[target];
        w->r_len = target + 1;
    }
    return WALK_OK;
}

/* The examined edges, rebuilt: both out-edges of each dead site, then the
 * first state[j] of each stack entry sx[j], up-right first; key and 1 if
 * open.  Writes at most cap edges and returns how many there are, which
 * differs from n_examined only if a failed allocation stopped the walk
 * midway. */
int64_t walk_edges(const walk_t *w, int64_t *keys, uint8_t *open, int64_t cap)
{
    int64_t n = 0;
    for (int64_t i = 0; i < w->dead.cap + w->stack_len; i++) {
        int64_t j = i - w->dead.cap; /* the stack index past the table */
        if (j < 0 && !w->dead.used[i])
            continue;
        uint64_t k = j < 0 ? w->dead.keys[i] : pack(w->t0 + j, w->sx[j]);
        for (int d = 1; d > 1 - (j < 0 ? 2 : w->state[j]); d--, n++)
            if (n < cap) {
                /* site t << 32 | x + X_BIAS to edge (2t + d) << 32 |
                 * x + X_BIAS, unsigned so that negative t works */
                uint64_t key = ((k & ~0xffffffffULL) << 1)
                               | ((uint64_t)d << 32) | (k & 0xffffffffULL);
                keys[n] = (int64_t)key;
                open[n] = (uint8_t)sample(w, key);
            }
    }
    return n;
}
