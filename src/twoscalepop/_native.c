/* Compiled stepping loop for the threestage maps H_k (and its limit H,
 * which has the same block-diagonal layout), reduced and local.
 *
 * Each step repeats the Python float kernel's IEEE operations in the same
 * order, so the two give the same bytes; _native.py builds this file with
 * -ffp-contract=off so that no product is fused behind our back.  The one
 * fused multiply-add is explicit: rows 4-5 of the H_k dispersal product,
 * where numpy's BLAS fuses too (_native.py probes that once per process).
 *
 * twoscale_orbit runs aggregation.iterate_tail's whole repeat schedule up
 * to the tail in one call; twoscale_advance runs plain, stored or checked
 * stretches, and twoscale_many one such stretch from each of a batch of
 * starts.  All go through one inlined loop, specialised per map kind so
 * that its copies and compares have a constant size.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { COMPLETE = 0, REDUCED = 1, LOCAL = 2 };
enum { RAN = 0, MATCHED_FIRST = 1, MATCHED_SECOND = 2, FAILS = 3, INADMISSIBLE = 4 };

/* z = A x for the block-diagonal dispersal power A, packed as its twelve
 * structural nonzeros row by row */
void twoscale_dispersal(const double *a, const double *x, double *z)
{
    z[0] = a[0] * x[0] + a[1] * x[1];
    z[1] = a[2] * x[0] + a[3] * x[1];
    z[2] = a[4] * x[2] + a[5] * x[3];
    z[3] = a[6] * x[2] + a[7] * x[3];
    z[4] = fma(a[8], x[4], a[9] * x[5]);
    z[5] = fma(a[10], x[4], a[11] * x[5]);
}

/* H_k: the dispersal product, then threestage._closed_form_demography with
 * constants (e1a e1b e2a e2b s2a s2b u2a u2b s3a s3b u3a u3b phi_a phi_b
 * c_a c_b d_a d_b) after the twelve matrix entries */
static int complete_step(const double *p, const double *x, double *out)
{
    const double *k = p + 12;
    double z[6];
    twoscale_dispersal(p, x, z);
    double den_fa = 1.0 + k[14] * z[2], den_ga = 1.0 + k[16] * z[2];
    double den_fb = 1.0 + k[15] * z[3], den_gb = 1.0 + k[17] * z[3];
    if (den_fa <= 0.0 || den_ga <= 0.0 || den_fb <= 0.0 || den_gb <= 0.0)
        return 0;
    double f_a = k[12] * (1.0 / den_fa), g_a = 1.0 / den_ga;
    double f_b = k[13] * (1.0 / den_fb), g_b = 1.0 / den_gb;
    out[0] = (f_a * k[4]) / k[6] * z[2];
    out[1] = (f_b * k[5]) / k[7] * z[3];
    out[2] = k[0] * z[0] + (g_a * k[8]) / k[10] * z[4];
    out[3] = k[1] * z[1] + (g_b * k[9]) / k[11] * z[5];
    out[4] = k[2] * z[2] + ((1.0 - g_a) * k[8]) / k[10] * z[4];
    out[5] = k[3] * z[3] + ((1.0 - g_b) * k[9]) / k[11] * z[5];
    for (int i = 0; i < 6; i++)
        if (!isfinite(out[i]))
            return 0;
    return 1;
}

/* threestage.reduced_map: (s1 s2 s3 b w11 w12 slope11 slope12 w21 w22
 * slope21 slope22) */
static int reduced_step(const double *p, const double *y, double *out)
{
    double d11 = 1.0 + p[6] * y[1], d12 = 1.0 + p[7] * y[1];
    double d21 = 1.0 + p[10] * y[1], d22 = 1.0 + p[11] * y[1];
    if (d11 <= 0.0 || d12 <= 0.0 || d21 <= 0.0 || d22 <= 0.0)
        return 0;
    double hh1 = p[4] * (1.0 / d11) + p[5] * (1.0 / d12);
    double hh2 = p[8] * (1.0 / d21) + p[9] * (1.0 / d22);
    out[0] = p[3] * hh1 * y[1];
    out[1] = p[0] * y[0] + p[2] * hh2 * y[2];
    out[2] = p[1] * y[1] + p[2] * (1.0 - hh2) * y[2];
    return 1;
}

/* threestage.local_map: (s1 s2 s3 phi c d) */
static int local_step(const double *p, const double *y, double *out)
{
    double den_f = 1.0 + p[4] * y[1], den_g = 1.0 + p[5] * y[1];
    if (den_f <= 0.0 || den_g <= 0.0)
        return 0;
    double f = p[3] * (1.0 / den_f), g = 1.0 / den_g;
    out[0] = p[1] * f * y[1];
    out[1] = p[0] * y[0] + p[2] * g * y[2];
    out[2] = p[1] * y[1] + p[2] * (1.0 - g) * y[2];
    return 1;
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
 * follows the step's compares.  A match ends the run with status
 * MATCHED_FIRST or MATCHED_SECOND and *period the steps since that save.
 * Returns the number of steps taken and sets *status.  FAILS means the
 * next step is one the Python kernel refuses (a pole denominator, a
 * non-finite H_k image); x then holds the state it would be applied to. */
static inline __attribute__((always_inline)) int64_t
run(int kind, int dim, const double *p, double *x, int64_t n, double *rows,
    const double *bound, int64_t *period, int *status)
{
    size_t bytes = dim * sizeof(double);
    double next[6], brent[6], fine[6];
    int64_t mark = 0, next_mark = 1, fine_mark = 0, next_fine = 1;
    if (period) {
        memcpy(brent, x, bytes);
        memcpy(fine, x, bytes);
    }
    for (int64_t t = 0; t < n; t++) {
        int ok = kind == COMPLETE ? complete_step(p, x, next)
               : kind == REDUCED ? reduced_step(p, x, next)
               : local_step(p, x, next);
        if (!ok) {
            *status = FAILS;
            return t;
        }
        memcpy(x, next, bytes);
        if (rows)
            memcpy(rows + t * dim, x, bytes);
        if (bound)
            for (int i = 0; i < dim; i++)
                if (!(x[i] >= 0.0 && x[i] <= *bound)) {  /* NaN fails both */
                    *status = INADMISSIBLE;
                    return t + 1;
                }
        if (period) {
            int64_t s = t + 1;
            if (memcmp(x, brent, bytes) == 0) {
                *period = s - mark;
                *status = MATCHED_FIRST;
                return s;
            }
            if (memcmp(x, fine, bytes) == 0) {
                *period = s - fine_mark;
                *status = MATCHED_SECOND;
                return s;
            }
            if (s == next_mark) {
                mark = s;
                next_mark = 2 * s + 1;
                memcpy(brent, x, bytes);
            }
            if (s == next_fine) {
                fine_mark = s;
                next_fine = s + 1 + s / 16;
                memcpy(fine, x, bytes);
            }
        }
    }
    *status = RAN;
    return n;
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
