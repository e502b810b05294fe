/* Compiled stepping loop for the threestage maps H_k (and its limit H,
 * which has the same block-diagonal layout), reduced and local, built as
 * the CPython extension module twoscalepop._native_c.
 *
 * Each step repeats the Python float kernel's IEEE operations in the same
 * order, so the two give the same bytes; _native.py builds this file with
 * -O3 -ffp-contract=off, so that no product is fused behind our back, and
 * with no -ffast-math or -march, so that no operation is reordered and the
 * cached module suits any x86-64 CPU.  The one fused multiply-add is
 * explicit: rows 4-5 of the H_k dispersal product, which the Python kernel
 * forms with an exact fma of its own (threestage._fma).
 *
 * orbits runs aggregation.iterate_tail's whole repeat schedule up to the
 * tail for every series of a run in one call; advance runs plain, stored
 * or checked stretches, many one such stretch from each of a batch of
 * starts, and step one step of an array form.  The schedule compares each
 * state with one saved state, the tortoise, re-saved ever more sparsely.
 * A lone series, and every series on a CPU without AVX2 and FMA, goes
 * through one inlined serial loop, run(), specialised per map kind so that
 * its state has a constant length.  It keeps the state, the tortoise and
 * the constants in registers: a step hands back its image by value, the
 * tortoise is held as bit patterns, and the caller's state is read once at
 * entry and written once at each exit.
 *
 * Two or more series on a CPU with AVX2 and FMA (__builtin_cpu_supports,
 * asked once at load; the target("avx2,fma") function is the only code
 * that uses them) step side by side in lane_orbits(), so that their
 * dependency chains overlap: the H_k series four to a vector, the others
 * as scalar lanes of the same loop.  A vector whose H_k divisors u2a, u2b,
 * u3a and u3b are all exactly 1.0 (the slow variant) skips those six
 * divisions, since x / 1.0 == x for every double; one that mixes unit and
 * other divisors divides.  Each lane leaves with what run() reports for
 * its series alone.  orbits, advance and many release the GIL around the
 * loop.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { COMPLETE = 0, REDUCED = 1, LOCAL = 2 };
enum { RAN = 0, MATCHED = 1, FAILS = 2, INADMISSIBLE = 3 };

/* a state; a map of three coordinates uses the first three */
typedef struct { double v[6]; } state;

/* a step's image, and whether the Python kernel admits the step */
typedef struct { state x; int ok; } image;

static inline uint64_t bits(double v)
{
    uint64_t u;
    memcpy(&u, &v, sizeof u);
    return u;
}

/* A x for the block-diagonal dispersal power A, packed as its twelve
 * structural nonzeros row by row */
static inline state dispersal(const double *restrict a, state x)
{
    state z = {{
        a[0] * x.v[0] + a[1] * x.v[1],
        a[2] * x.v[0] + a[3] * x.v[1],
        a[4] * x.v[2] + a[5] * x.v[3],
        a[6] * x.v[2] + a[7] * x.v[3],
        fma(a[8], x.v[4], a[9] * x.v[5]),
        fma(a[10], x.v[4], a[11] * x.v[5]),
    }};
    return z;
}

/* H_k: the dispersal product, then threestage._closed_form_demography with
 * constants (e1a e1b e2a e2b s2a s2b u2a u2b s3a s3b u3a u3b phi_a phi_b
 * c_a c_b d_a d_b) after the twelve matrix entries */
static inline image complete_step(const double *restrict p, state x)
{
    const double *restrict k = p + 12;
    image out = {{{0.0}}, 0};
    state z = dispersal(p, x);
    double den_fa = 1.0 + k[14] * z.v[2], den_ga = 1.0 + k[16] * z.v[2];
    double den_fb = 1.0 + k[15] * z.v[3], den_gb = 1.0 + k[17] * z.v[3];
    if (den_fa <= 0.0 || den_ga <= 0.0 || den_fb <= 0.0 || den_gb <= 0.0)
        return out;
    double f_a = k[12] * (1.0 / den_fa), g_a = 1.0 / den_ga;
    double f_b = k[13] * (1.0 / den_fb), g_b = 1.0 / den_gb;
    out.x.v[0] = (f_a * k[4]) / k[6] * z.v[2];
    out.x.v[1] = (f_b * k[5]) / k[7] * z.v[3];
    out.x.v[2] = k[0] * z.v[0] + (g_a * k[8]) / k[10] * z.v[4];
    out.x.v[3] = k[1] * z.v[1] + (g_b * k[9]) / k[11] * z.v[5];
    out.x.v[4] = k[2] * z.v[2] + ((1.0 - g_a) * k[8]) / k[10] * z.v[4];
    out.x.v[5] = k[3] * z.v[3] + ((1.0 - g_b) * k[9]) / k[11] * z.v[5];
    out.ok = 1;
    for (int i = 0; i < 6; i++)
        out.ok &= isfinite(out.x.v[i]) != 0;
    return out;
}

/* threestage.reduced_map: (s1 s2 s3 b w11 w12 slope11 slope12 w21 w22
 * slope21 slope22) */
static inline image reduced_step(const double *restrict p, state y)
{
    image out = {{{0.0}}, 0};
    double d11 = 1.0 + p[6] * y.v[1], d12 = 1.0 + p[7] * y.v[1];
    double d21 = 1.0 + p[10] * y.v[1], d22 = 1.0 + p[11] * y.v[1];
    if (d11 <= 0.0 || d12 <= 0.0 || d21 <= 0.0 || d22 <= 0.0)
        return out;
    double hh1 = p[4] * (1.0 / d11) + p[5] * (1.0 / d12);
    double hh2 = p[8] * (1.0 / d21) + p[9] * (1.0 / d22);
    out.x.v[0] = p[3] * hh1 * y.v[1];
    out.x.v[1] = p[0] * y.v[0] + p[2] * hh2 * y.v[2];
    out.x.v[2] = p[1] * y.v[1] + p[2] * (1.0 - hh2) * y.v[2];
    out.ok = 1;
    return out;
}

/* threestage.local_map: (s1 s2 s3 phi c d) */
static inline image local_step(const double *restrict p, state y)
{
    image out = {{{0.0}}, 0};
    double den_f = 1.0 + p[4] * y.v[1], den_g = 1.0 + p[5] * y.v[1];
    if (den_f <= 0.0 || den_g <= 0.0)
        return out;
    double f = p[3] * (1.0 / den_f), g = 1.0 / den_g;
    out.x.v[0] = p[1] * f * y.v[1];
    out.x.v[1] = p[0] * y.v[0] + p[2] * g * y.v[2];
    out.x.v[2] = p[1] * y.v[1] + p[2] * (1.0 - g) * y.v[2];
    out.ok = 1;
    return out;
}

/* One step of map `kind`; `kind` is a constant once inlined. */
static inline __attribute__((always_inline)) image
step_of(int kind, const double *restrict p, state s)
{
    return kind == COMPLETE ? complete_step(p, s)
         : kind == REDUCED ? reduced_step(p, s)
         : local_step(p, s);
}

/* End a run: write the state back to the caller's array and report. */
static inline __attribute__((always_inline)) int64_t
leave(double *restrict x, state s, int dim, int *status, int code, int64_t taken)
{
    for (int i = 0; i < dim; i++)
        x[i] = s.v[i];
    *status = code;
    return taken;
}

/* Step x by up to n steps of map `kind` with constants p; `dim` is the
 * state's length, a constant once inlined.  With `rows` non-NULL every new
 * state is stored there too.  With `bound` non-NULL the run is checked:
 * once stored, a state that is not finite, nonnegative and at most *bound
 * ends it with status INADMISSIBLE, before any comparison or further step.
 * With `period` non-NULL the run follows iterate_tail's repeat schedule:
 * each new state's bytes are compared with the tortoise, a state saved at
 * step 0 (x) and re-saved at step t + 1 + t / 16 after each save at step t,
 * each save following the step's compare.  The tortoise is held as the bit
 * patterns of its coordinates, so a match is the bytes' match: -0.0
 * differs from 0.0, and a NaN matches only the same bits.  A match ends the
 * run with status MATCHED and *period the steps since the save.  Returns
 * the number of steps taken, sets *status and leaves in x the last state
 * reached.  FAILS means the next step is one the Python kernel refuses (a
 * pole denominator, a non-finite H_k image); x then holds the state it
 * would be applied to. */
static inline __attribute__((always_inline)) int64_t
run(int kind, int dim, const double *restrict p, double *restrict x, int64_t n,
    double *restrict rows, const double *restrict bound, int64_t *restrict period,
    int *restrict status)
{
    state s = {{0.0}};
    uint64_t tortoise[6] = {0};
    int64_t mark = 0, next_mark = 1;
    double most = bound ? *bound : 0.0;
    for (int i = 0; i < dim; i++) {
        s.v[i] = x[i];
        tortoise[i] = bits(s.v[i]);
    }
    for (int64_t t = 0; t < n; t++) {
        image next = step_of(kind, p, s);
        if (!next.ok)
            return leave(x, s, dim, status, FAILS, t);
        s = next.x;
        if (rows)
            for (int i = 0; i < dim; i++)
                rows[t * dim + i] = s.v[i];
        if (bound) {
            int inside = 1;
            for (int i = 0; i < dim; i++)  /* NaN fails both */
                inside &= s.v[i] >= 0.0 && s.v[i] <= most;
            if (!inside)
                return leave(x, s, dim, status, INADMISSIBLE, t + 1);
        }
        if (period) {
            int64_t step = t + 1;
            uint64_t off = 0;
            for (int i = 0; i < dim; i++)
                off |= bits(s.v[i]) ^ tortoise[i];
            if (off == 0) {
                *period = step - mark;
                return leave(x, s, dim, status, MATCHED, step);
            }
            if (step == next_mark) {
                mark = step;
                next_mark = step + 1 + step / 16;
                for (int i = 0; i < dim; i++)
                    tortoise[i] = bits(s.v[i]);
            }
        }
    }
    return leave(x, s, dim, status, RAN, n);
}

/* Step x by up to n steps, storing, checking and following the repeat
 * schedule as run() says. */
static int64_t advance(int kind, const double *p, double *x, int64_t n, double *rows,
                       const double *bound, int64_t *period, int *status)
{
    switch (kind) {
    case COMPLETE: return run(COMPLETE, 6, p, x, n, rows, bound, period, status);
    case REDUCED: return run(REDUCED, 3, p, x, n, rows, bound, period, status);
    default: return run(LOCAL, 3, p, x, n, rows, bound, period, status);
    }
}

/* ---- orbits: every series of a run stepped together ---- */

#define MAX_CONSTANTS 30  /* the longest constant table, H_k's */

/* One series of orbits(): its map and start, then how it left. */
typedef struct {
    int kind, dim, status;
    int64_t taken, period;
    double p[MAX_CONSTANTS], x[6];
} series;

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define HAVE_LANES 1
#define AVX2 __attribute__((target("avx2,fma")))

/* Four H_k series, one to a lane of a vector: coordinate or constant j of
 * lane l sits at [j][l].  A lane padding a group of fewer than four holds
 * a copy of lane 0 and never steps. */
typedef struct {
    double c[30][4], x[6][4];
    uint64_t tortoise[6][4];
    series *of[4];
    int live;  /* the lanes still stepping, one bit each */
    int unit;  /* every lane's u2a, u2b, u3a and u3b is exactly 1.0 */
} __attribute__((aligned(64))) quad;  /* no vector load splits a cache line */

/* A reduced or local series stepped alongside the quads. */
typedef struct {
    series *of;
    uint64_t tortoise[3];
    int live;
} lane;

AVX2 static inline __m256d ld(const double *v) { return _mm256_loadu_pd(v); }

/* complete_step() in the four lanes of q: the same IEEE operations lane by
 * lane, rows 4-5 fused as C's fma fuses them.  With `unit` the six
 * divisions by u2a, u2b, u3a and u3b are left out: each divisor is then
 * exactly 1.0, and x / 1.0 == x for every double.  Writes the images to y
 * and returns the lanes whose step the Python kernel admits, one bit each. */
AVX2 static inline int quad_step(const quad *q, int unit, __m256d y[6])
{
    const double (*c)[4] = q->c, (*k)[4] = q->c + 12;
    const __m256d one = _mm256_set1_pd(1.0), zero = _mm256_setzero_pd();
    __m256d x0 = ld(q->x[0]), x1 = ld(q->x[1]), x2 = ld(q->x[2]);
    __m256d x3 = ld(q->x[3]), x4 = ld(q->x[4]), x5 = ld(q->x[5]);
    __m256d z0 = _mm256_add_pd(_mm256_mul_pd(ld(c[0]), x0), _mm256_mul_pd(ld(c[1]), x1));
    __m256d z1 = _mm256_add_pd(_mm256_mul_pd(ld(c[2]), x0), _mm256_mul_pd(ld(c[3]), x1));
    __m256d z2 = _mm256_add_pd(_mm256_mul_pd(ld(c[4]), x2), _mm256_mul_pd(ld(c[5]), x3));
    __m256d z3 = _mm256_add_pd(_mm256_mul_pd(ld(c[6]), x2), _mm256_mul_pd(ld(c[7]), x3));
    __m256d z4 = _mm256_fmadd_pd(ld(c[8]), x4, _mm256_mul_pd(ld(c[9]), x5));
    __m256d z5 = _mm256_fmadd_pd(ld(c[10]), x4, _mm256_mul_pd(ld(c[11]), x5));
    __m256d den_fa = _mm256_add_pd(one, _mm256_mul_pd(ld(k[14]), z2));
    __m256d den_ga = _mm256_add_pd(one, _mm256_mul_pd(ld(k[16]), z2));
    __m256d den_fb = _mm256_add_pd(one, _mm256_mul_pd(ld(k[15]), z3));
    __m256d den_gb = _mm256_add_pd(one, _mm256_mul_pd(ld(k[17]), z3));
    __m256d bad = _mm256_or_pd(
        _mm256_or_pd(_mm256_cmp_pd(den_fa, zero, _CMP_LE_OQ), _mm256_cmp_pd(den_ga, zero, _CMP_LE_OQ)),
        _mm256_or_pd(_mm256_cmp_pd(den_fb, zero, _CMP_LE_OQ), _mm256_cmp_pd(den_gb, zero, _CMP_LE_OQ)));
    __m256d f_a = _mm256_mul_pd(ld(k[12]), _mm256_div_pd(one, den_fa));
    __m256d g_a = _mm256_div_pd(one, den_ga);
    __m256d f_b = _mm256_mul_pd(ld(k[13]), _mm256_div_pd(one, den_fb));
    __m256d g_b = _mm256_div_pd(one, den_gb);
    __m256d r_a = _mm256_mul_pd(f_a, ld(k[4])), r_b = _mm256_mul_pd(f_b, ld(k[5]));
    __m256d s_a = _mm256_mul_pd(g_a, ld(k[8])), s_b = _mm256_mul_pd(g_b, ld(k[9]));
    __m256d h_a = _mm256_mul_pd(_mm256_sub_pd(one, g_a), ld(k[8]));
    __m256d h_b = _mm256_mul_pd(_mm256_sub_pd(one, g_b), ld(k[9]));
    if (!unit) {
        r_a = _mm256_div_pd(r_a, ld(k[6]));
        r_b = _mm256_div_pd(r_b, ld(k[7]));
        s_a = _mm256_div_pd(s_a, ld(k[10]));
        s_b = _mm256_div_pd(s_b, ld(k[11]));
        h_a = _mm256_div_pd(h_a, ld(k[10]));
        h_b = _mm256_div_pd(h_b, ld(k[11]));
    }
    y[0] = _mm256_mul_pd(r_a, z2);
    y[1] = _mm256_mul_pd(r_b, z3);
    y[2] = _mm256_add_pd(_mm256_mul_pd(ld(k[0]), z0), _mm256_mul_pd(s_a, z4));
    y[3] = _mm256_add_pd(_mm256_mul_pd(ld(k[1]), z1), _mm256_mul_pd(s_b, z5));
    y[4] = _mm256_add_pd(_mm256_mul_pd(ld(k[2]), z2), _mm256_mul_pd(h_a, z4));
    y[5] = _mm256_add_pd(_mm256_mul_pd(ld(k[3]), z3), _mm256_mul_pd(h_b, z5));
    /* finite: |v| <= DBL_MAX, which a NaN fails */
    const __m256d sign = _mm256_set1_pd(-0.0), most = _mm256_set1_pd(1.7976931348623157e308);
    __m256d finite = _mm256_cmp_pd(_mm256_andnot_pd(sign, y[0]), most, _CMP_LE_OQ);
    for (int i = 1; i < 6; i++)
        finite = _mm256_and_pd(finite, _mm256_cmp_pd(_mm256_andnot_pd(sign, y[i]), most, _CMP_LE_OQ));
    return _mm256_movemask_pd(_mm256_andnot_pd(bad, finite));
}

/* Hand a series its state, step count and status as run() would. */
static inline void settle(series *s, const double *x, int status, int64_t taken, int64_t period)
{
    memmove(s->x, x, s->dim * sizeof(double));
    s->status = status;
    s->taken = taken;
    s->period = period;
}

/* Lane l of q leaves with the state it holds. */
static inline void quad_leave(quad *q, int l, int status, int64_t taken, int64_t period)
{
    double x[6];
    for (int i = 0; i < 6; i++)
        x[i] = q->x[i][l];
    settle(q->of[l], x, status, taken, period);
    q->live &= ~(1 << l);
}

/* Put series s, its constants, state and tortoise, in lane l of q. */
static void quad_put(quad *q, int l, series *s)
{
    q->of[l] = s;
    for (int j = 0; j < 30; j++)
        q->c[j][l] = s->p[j];
    for (int j = 0; j < 6; j++) {
        q->x[j][l] = s->x[j];
        q->tortoise[j][l] = bits(s->x[j]);
    }
}

/* run()'s repeat schedule for every series, stepped together: the H_k
 * series four to a vector of quads, the reduced and local ones as scalar
 * lanes of the same loop, so that their dependency chains overlap.  Every
 * series starts at step 0, so the save steps are shared; each lane keeps
 * its own tortoise.  A quad compares each lane's coordinate-0 bits with
 * its tortoise first, and all its coordinates only on a hit.  Each lane
 * leaves at its own match, FAILS (keeping the state before the refused
 * step) or `first`, with what run() reports for its series alone.  quads
 * and lanes come zeroed. */
AVX2 static void lane_orbits(series *s, Py_ssize_t count, int64_t first, quad *quads, lane *lanes)
{
    Py_ssize_t nquads = 0, nlanes = 0, live = count;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (s[i].kind == COMPLETE) {
            quad *q = &quads[nquads / 4];
            q->live |= 1 << nquads % 4;
            quad_put(q, nquads++ % 4, &s[i]);
        } else {
            lanes[nlanes].of = &s[i];
            lanes[nlanes].live = 1;
            for (int j = 0; j < 3; j++)
                lanes[nlanes].tortoise[j] = bits(s[i].x[j]);
            nlanes++;
        }
    }
    nquads = (nquads + 3) / 4;
    for (quad *q = quads; q < quads + nquads; q++) {
        q->unit = 1;
        for (int l = 0; l < 4; l++) {
            if (!(q->live >> l & 1))
                quad_put(q, l, q->of[0]);  /* padding */
            q->unit &= q->c[18][l] == 1.0 && q->c[19][l] == 1.0
                       && q->c[22][l] == 1.0 && q->c[23][l] == 1.0;
        }
    }

    int64_t t = 0, mark = 0, next_mark = 1;
    for (; t < first && live > 0; t++) {
        int64_t step = t + 1;
        for (quad *q = quads; q < quads + nquads; q++) {
            if (!q->live)
                continue;
            __m256d y[6];
            int ok = quad_step(q, q->unit, y);
            for (int gone = q->live & ~ok; gone; gone &= gone - 1, live--)
                quad_leave(q, __builtin_ctz(gone), FAILS, t, 0);
            /* a lane that left keeps its last state */
            __m256d keep = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_and_si256(_mm256_set1_epi64x(q->live), _mm256_setr_epi64x(1, 2, 4, 8)),
                _mm256_setzero_si256()));
            for (int i = 0; i < 6; i++)
                _mm256_storeu_pd(q->x[i], _mm256_blendv_pd(y[i], ld(q->x[i]), keep));
            int hits = q->live & _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_castpd_si256(y[0]), _mm256_loadu_si256((const __m256i *)q->tortoise[0]))));
            for (; hits; hits &= hits - 1) {
                int l = __builtin_ctz(hits);
                uint64_t off = 0;
                for (int i = 0; i < 6; i++)
                    off |= bits(q->x[i][l]) ^ q->tortoise[i][l];
                if (off == 0) {
                    quad_leave(q, l, MATCHED, step, step - mark);
                    live--;
                }
            }
        }
        for (lane *ln = lanes; ln < lanes + nlanes; ln++) {
            if (!ln->live)
                continue;
            series *sr = ln->of;
            state cur = {{sr->x[0], sr->x[1], sr->x[2]}};
            image next = step_of(sr->kind, sr->p, cur);
            if (!next.ok) {
                settle(sr, sr->x, FAILS, t, 0);
                ln->live = 0;
                live--;
                continue;
            }
            memcpy(sr->x, next.x.v, 3 * sizeof(double));
            uint64_t off = 0;
            for (int j = 0; j < 3; j++)
                off |= bits(sr->x[j]) ^ ln->tortoise[j];
            if (off == 0) {
                settle(sr, sr->x, MATCHED, step, step - mark);
                ln->live = 0;
                live--;
            }
        }
        /* each save follows the step's compares, as in run() */
        if (step == next_mark) {
            mark = step;
            next_mark = step + 1 + step / 16;
            for (quad *q = quads; q < quads + nquads; q++)
                memcpy(q->tortoise, q->x, sizeof q->x);
            for (lane *ln = lanes; ln < lanes + nlanes; ln++)
                memcpy(ln->tortoise, ln->of->x, sizeof ln->tortoise);
        }
    }
    /* the lanes still stepping ran to `first` */
    for (quad *q = quads; q < quads + nquads; q++)
        while (q->live)
            quad_leave(q, __builtin_ctz(q->live), RAN, t, 0);
    for (lane *ln = lanes; ln < lanes + nlanes; ln++)
        if (ln->live)
            settle(ln->of, ln->of->x, RAN, t, 0);
}
#endif

/* set once at module load: whether this CPU steps series in lanes */
static int has_lanes;

/* Step each series toward step `first`, the tail's first row, under the
 * repeat schedule, as advance() steps it alone, taking the lanes when there
 * is more than one series and the CPU has AVX2 and FMA.  quads and lanes
 * hold room for every series. */
static void orbits(series *s, Py_ssize_t count, int64_t first, void *quads, void *lanes)
{
#ifdef HAVE_LANES
    if (has_lanes && count > 1) {
        lane_orbits(s, count, first, quads, lanes);
        return;
    }
#endif
    (void)quads;
    (void)lanes;
    for (Py_ssize_t i = 0; i < count; i++)
        s[i].taken = advance(s[i].kind, s[i].p, s[i].x, first, NULL, NULL, &s[i].period,
                             &s[i].status);
}

/* ---- the Python binding: argument parsing, the GIL and results ---- */

static int arity(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* A map kind, its state length and its constant count (a ValueError for
 * an unknown kind), then its packed constants (immutable bytes of that
 * many doubles) copied into p. */
static int read_map(PyObject *kind_arg, PyObject *constants, int *kind, int *dim, double *p)
{
    static const int dims[] = {6, 3, 3}, counts[] = {30, 12, 6};
    long k = PyLong_AsLong(kind_arg);
    if (k == -1 && PyErr_Occurred())
        return -1;
    if (k < COMPLETE || k > LOCAL) {
        PyErr_SetString(PyExc_ValueError, "unknown map kind");
        return -1;
    }
    Py_ssize_t size = counts[k] * (Py_ssize_t)sizeof(double);
    if (!PyBytes_Check(constants) || PyBytes_GET_SIZE(constants) != size) {
        PyErr_SetString(PyExc_ValueError, "constants do not fit the map kind");
        return -1;
    }
    memcpy(p, PyBytes_AS_STRING(constants), size);
    *kind = (int)k;
    *dim = dims[k];
    return 0;
}

/* A state: a sequence of `dim` numbers. */
static int read_state(PyObject *arg, int dim, double *x)
{
    PyObject *seq = PySequence_Fast(arg, "a state must be a sequence of floats");
    if (seq == NULL)
        return -1;
    int ok = PySequence_Fast_GET_SIZE(seq) == dim;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "a state of this map has %d coordinates", dim);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int i = 0; ok && i < dim; i++) {
        x[i] = PyFloat_AsDouble(items[i]);
        ok = !(x[i] == -1.0 && PyErr_Occurred());
    }
    Py_DECREF(seq);
    return ok ? 0 : -1;
}

static PyObject *state_tuple(const double *x, int dim)
{
    PyObject *t = PyTuple_New(dim);
    for (int i = 0; t != NULL && i < dim; i++) {
        PyObject *v = PyFloat_FromDouble(x[i]);
        if (v == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* A step count: an integer in [0, 2**63 - 1], refused rather than wrapped. */
static int read_count(PyObject *arg, int64_t *n)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow != 0 || v < 0) {
        PyErr_SetString(PyExc_ValueError, "a step count must lie in [0, 2**63 - 1]");
        return -1;
    }
    *n = (int64_t)v;
    return 0;
}

/* None (an unchecked run: *use is NULL) or the admissible set's bound. */
static int read_bound(PyObject *arg, double *bound, const double **use)
{
    *use = NULL;
    if (arg == Py_None)
        return 0;
    *bound = PyFloat_AsDouble(arg);
    if (*bound == -1.0 && PyErr_Occurred())
        return -1;
    *use = bound;
    return 0;
}

/* A writable C-contiguous float64 buffer holding whole states of `dim`. */
static int write_buffer(PyObject *arg, int dim, Py_buffer *view)
{
    if (PyObject_GetBuffer(arg, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != sizeof(double) || view->format == NULL
        || strcmp(view->format, "d") != 0 || view->len % (dim * (Py_ssize_t)sizeof(double))) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "expected a C-contiguous float64 buffer of states "
                     "with %d coordinates", dim);
        return -1;
    }
    return 0;
}

static PyObject *py_orbits(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t first;
    (void)self;
    if (arity(nargs, 2, "orbits") < 0 || read_count(args[1], &first) < 0)
        return NULL;
    PyObject *seq = PySequence_Fast(args[0], "series must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    size_t room = count > 0 ? (size_t)count : 1;
    series *s = PyMem_Calloc(room, sizeof *s);
#ifdef HAVE_LANES
    quad *quads = aligned_alloc(_Alignof(quad), room * sizeof *quads);
    lane *lanes = PyMem_Calloc(room, sizeof *lanes);
    if (quads != NULL)
        memset(quads, 0, room * sizeof *quads);
#else
    void *quads = NULL, *lanes = NULL;
#endif
    PyObject *result = NULL;
    if (s == NULL || (has_lanes && (quads == NULL || lanes == NULL))) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 3) {
            PyErr_SetString(PyExc_TypeError, "each series must be a (kind, constants, state) tuple");
            goto done;
        }
        if (read_map(PyTuple_GET_ITEM(item, 0), PyTuple_GET_ITEM(item, 1), &s[i].kind,
                     &s[i].dim, s[i].p) < 0
            || read_state(PyTuple_GET_ITEM(item, 2), s[i].dim, s[i].x) < 0)
            goto done;
    }
    Py_BEGIN_ALLOW_THREADS
    orbits(s, count, first, quads, lanes);
    Py_END_ALLOW_THREADS
    result = PyList_New(count);
    for (Py_ssize_t i = 0; result != NULL && i < count; i++) {
        PyObject *state = state_tuple(s[i].x, s[i].dim);
        PyObject *item = state == NULL ? NULL : Py_BuildValue(
            "(NLiL)", state, (long long)s[i].taken, s[i].status, (long long)s[i].period);
        if (item == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, i, item);
    }
done:
    PyMem_Free(s);
    free(quads);
    PyMem_Free(lanes);
    Py_DECREF(seq);
    return result;
}

static PyObject *py_advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS], x[6], bound;
    const double *checked;
    int kind, dim, status;
    int64_t n, taken;
    Py_buffer view = {0};
    double *rows = NULL;
    (void)self;
    if (arity(nargs, 6, "advance") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0
        || read_state(args[2], dim, x) < 0 || read_count(args[3], &n) < 0
        || read_bound(args[5], &bound, &checked) < 0)
        return NULL;
    if (args[4] != Py_None) {
        if (write_buffer(args[4], dim, &view) < 0)
            return NULL;
        if (n > view.len / (dim * (Py_ssize_t)sizeof(double))) {
            PyBuffer_Release(&view);
            PyErr_SetString(PyExc_ValueError, "rows hold fewer states than the steps");
            return NULL;
        }
        rows = view.buf;
    }
    Py_BEGIN_ALLOW_THREADS
    taken = advance(kind, p, x, n, rows, checked, NULL, &status);
    Py_END_ALLOW_THREADS
    if (rows != NULL)
        PyBuffer_Release(&view);
    PyObject *state = state_tuple(x, dim);
    if (state == NULL)
        return NULL;
    return Py_BuildValue("(NLi)", state, (long long)taken, status);
}

static PyObject *py_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS], bound;
    const double *checked;
    int kind, dim;
    int64_t n;
    Py_buffer view;
    (void)self;
    if (arity(nargs, 5, "many") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0
        || read_count(args[3], &n) < 0 || read_bound(args[4], &bound, &checked) < 0
        || write_buffer(args[2], dim, &view) < 0)
        return NULL;
    Py_ssize_t count = view.len / (dim * (Py_ssize_t)sizeof(double));
    int64_t *taken = PyMem_Malloc((count > 0 ? count : 1) * sizeof *taken);
    int *status = PyMem_Malloc((count > 0 ? count : 1) * sizeof *status);
    if (taken == NULL || status == NULL) {
        PyMem_Free(taken);
        PyMem_Free(status);
        PyBuffer_Release(&view);
        return PyErr_NoMemory();
    }
    double *xs = view.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < count; i++)
        taken[i] = advance(kind, p, xs + i * dim, n, NULL, checked, NULL, &status[i]);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&view);
    PyObject *rows = PyList_New(0);
    for (Py_ssize_t i = 0; rows != NULL && i < count; i++) {
        if (status[i] == RAN)
            continue;
        PyObject *row = Py_BuildValue("(nLi)", i, (long long)taken[i], status[i]);
        if (row == NULL || PyList_Append(rows, row) < 0)
            Py_CLEAR(rows);
        Py_XDECREF(row);
    }
    PyMem_Free(taken);
    PyMem_Free(status);
    return rows;
}

static PyObject *py_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double p[MAX_CONSTANTS];
    int kind, dim;
    Py_buffer in, out;
    (void)self;
    if (arity(nargs, 4, "step") < 0 || read_map(args[0], args[1], &kind, &dim, p) < 0)
        return NULL;
    /* only a 1-D C-contiguous float64 buffer of one state is read here */
    if (!PyObject_CheckBuffer(args[2]))
        Py_RETURN_FALSE;
    if (PyObject_GetBuffer(args[2], &in, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        Py_RETURN_FALSE;
    }
    int eligible = in.ndim == 1 && in.shape[0] == dim && in.itemsize == sizeof(double)
                   && in.format != NULL && strcmp(in.format, "d") == 0
                   && PyBuffer_IsContiguous(&in, 'C');
    state s = {{0.0}};
    if (eligible)
        memcpy(s.v, in.buf, dim * sizeof(double));
    PyBuffer_Release(&in);
    if (!eligible)
        Py_RETURN_FALSE;
    image next = step_of(kind, p, s);
    if (!next.ok)
        Py_RETURN_FALSE;
    if (write_buffer(args[3], dim, &out) < 0)
        return NULL;
    int fits = out.len == dim * (Py_ssize_t)sizeof(double);
    if (fits)
        memcpy(out.buf, next.x.v, dim * sizeof(double));
    PyBuffer_Release(&out);
    if (!fits) {
        PyErr_Format(PyExc_ValueError, "out must hold one state of %d coordinates", dim);
        return NULL;
    }
    Py_RETURN_TRUE;
}

static PyMethodDef methods[] = {
    {"orbits", (PyCFunction)(void (*)(void))py_orbits, METH_FASTCALL,
     "orbits(series, first) -> [(state, taken, status, period), ...]\n\n"
     "Run iterate_tail's repeat schedule from each (kind, constants, x) of\n"
     "series toward step first, as one series alone would run it."},
    {"advance", (PyCFunction)(void (*)(void))py_advance, METH_FASTCALL,
     "advance(kind, constants, x, n, rows, bound) -> (state, taken, status)\n\n"
     "Step x by up to n steps, storing each state in rows unless it is None\n"
     "and checking each against bound unless it is None."},
    {"many", (PyCFunction)(void (*)(void))py_many, METH_FASTCALL,
     "many(kind, constants, states, n, bound) -> [(row, taken, status), ...]\n\n"
     "Step each row of the float64 buffer states in place as advance does;\n"
     "returns each row whose run did not end with status RAN, with its\n"
     "step count and status."},
    {"step", (PyCFunction)(void (*)(void))py_step, METH_FASTCALL,
     "step(kind, constants, x, out) -> bool\n\n"
     "One step from x into out.  False, with out untouched, when x is not a\n"
     "1-D C-contiguous float64 buffer of one state or the step fails."},
    {NULL, NULL, 0, NULL},
};

/* LANES names how orbits steps more than one series on this CPU */
static int exec_module(PyObject *m)
{
#ifdef HAVE_LANES
    __builtin_cpu_init();
    has_lanes = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
    return PyModule_AddStringConstant(m, "LANES", has_lanes ? "AVX2" : "serial");
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "twoscalepop._native_c",
    .m_doc = "Compiled stepping loop for the threestage maps; see _native.py.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__native_c(void)
{
    return PyModuleDef_Init(&module);
}
