/* Compiled stepping loop for the threestage maps H_k (and its limit H,
 * which has the same block-diagonal layout), reduced and local.
 *
 * Each step repeats the Python float kernel's IEEE operations in the same
 * order, so the two give the same bytes; _native.py builds this file with
 * -O3 -ffp-contract=off, so that no product is fused behind our back, and
 * with no -ffast-math or -march, so that no operation is reordered and the
 * cached library suits any x86-64 CPU.  The one fused multiply-add is
 * explicit: rows 4-5 of the H_k dispersal product, where numpy's BLAS fuses
 * too (_native.py probes that once per process).
 *
 * twoscale_orbit runs aggregation.iterate_tail's whole repeat schedule up
 * to the tail in one call; twoscale_advance runs plain, stored or checked
 * stretches, and twoscale_many one such stretch from each of a batch of
 * starts.  All go through one inlined loop, specialised per map kind so
 * that its state has a constant length.  The loop keeps the state, both
 * saved states of the repeat schedule and the constants in registers: a
 * step hands back its image by value, the saved states are held as bit
 * patterns, and the caller's array is read once at entry and written once
 * at each exit.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { COMPLETE = 0, REDUCED = 1, LOCAL = 2 };
enum { RAN = 0, MATCHED_FIRST = 1, MATCHED_SECOND = 2, FAILS = 3, INADMISSIBLE = 4 };

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

/* z = A x, the dispersal product alone, for _native.py's probe */
void twoscale_dispersal(const double *a, const double *x, double *z)
{
    state s = {{x[0], x[1], x[2], x[3], x[4], x[5]}};
    s = dispersal(a, s);
    for (int i = 0; i < 6; i++)
        z[i] = s.v[i];
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
 * each new state's bytes are compared with Brent's tortoise, saved at steps
 * 2^n - 1, then with the fine one, re-saved at step t + 1 + t / 16 after
 * each save at step t; both start as x, saved at step 0, and each save
 * follows the step's compares.  A tortoise is held as the bit patterns of
 * its coordinates, so a match is the bytes' match: -0.0 differs from 0.0,
 * and a NaN matches only the same bits.  A match ends the run with status
 * MATCHED_FIRST or MATCHED_SECOND and *period the steps since that save.
 * Returns the number of steps taken, sets *status and leaves in x the last
 * state reached.  FAILS means the next step is one the Python kernel
 * refuses (a pole denominator, a non-finite H_k image); x then holds the
 * state it would be applied to. */
static inline __attribute__((always_inline)) int64_t
run(int kind, int dim, const double *restrict p, double *restrict x, int64_t n,
    double *restrict rows, const double *restrict bound, int64_t *restrict period,
    int *restrict status)
{
    state s = {{0.0}};
    uint64_t brent[6] = {0}, fine[6] = {0};
    int64_t mark = 0, next_mark = 1, fine_mark = 0, next_fine = 1;
    double most = bound ? *bound : 0.0;
    for (int i = 0; i < dim; i++) {
        s.v[i] = x[i];
        brent[i] = fine[i] = bits(s.v[i]);
    }
    for (int64_t t = 0; t < n; t++) {
        image next = kind == COMPLETE ? complete_step(p, s)
                   : kind == REDUCED ? reduced_step(p, s)
                   : local_step(p, s);
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
            uint64_t off_brent = 0, off_fine = 0;
            for (int i = 0; i < dim; i++) {
                off_brent |= bits(s.v[i]) ^ brent[i];
                off_fine |= bits(s.v[i]) ^ fine[i];
            }
            if (off_brent == 0) {
                *period = step - mark;
                return leave(x, s, dim, status, MATCHED_FIRST, step);
            }
            if (off_fine == 0) {
                *period = step - fine_mark;
                return leave(x, s, dim, status, MATCHED_SECOND, step);
            }
            if (step == next_mark) {
                mark = step;
                next_mark = 2 * step + 1;
                for (int i = 0; i < dim; i++)
                    brent[i] = bits(s.v[i]);
            }
            if (step == next_fine) {
                fine_mark = step;
                next_fine = step + 1 + step / 16;
                for (int i = 0; i < dim; i++)
                    fine[i] = bits(s.v[i]);
            }
        }
    }
    return leave(x, s, dim, status, RAN, n);
}

/* Step x by up to n steps, storing and checking as run() says. */
int64_t twoscale_advance(int kind, const double *p, double *x, int64_t n,
                         double *rows, const double *bound, int *status)
{
    switch (kind) {
    case COMPLETE: return run(COMPLETE, 6, p, x, n, rows, bound, NULL, status);
    case REDUCED: return run(REDUCED, 3, p, x, n, rows, bound, NULL, status);
    default: return run(LOCAL, 3, p, x, n, rows, bound, NULL, status);
    }
}

/* Step each of the `count` rows of xs (row-major, the state's length
 * wide) by up to n steps, as twoscale_advance steps one; row i's steps
 * taken and status go to taken[i] and status[i]. */
void twoscale_many(int kind, const double *p, double *xs, int64_t count, int64_t n,
                   const double *bound, int64_t *taken, int *status)
{
    int dim = kind == COMPLETE ? 6 : 3;
    for (int64_t i = 0; i < count; i++)
        taken[i] = twoscale_advance(kind, p, xs + i * dim, n, NULL, bound, status + i);
}

/* Step x toward step `first`, the tail's first row, under the repeat
 * schedule; stops at the first match or at `first`. */
int64_t twoscale_orbit(int kind, const double *p, double *x, int64_t first,
                       int64_t *period, int *status)
{
    switch (kind) {
    case COMPLETE: return run(COMPLETE, 6, p, x, first, NULL, NULL, period, status);
    case REDUCED: return run(REDUCED, 3, p, x, first, NULL, NULL, period, status);
    default: return run(LOCAL, 3, p, x, first, NULL, NULL, period, status);
    }
}
