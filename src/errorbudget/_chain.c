/* One annealing chain over a compiled node table, for anneal.py.
 *
 * The chain is the one `_run_chain`'s reference loop runs, step for step and
 * operation for operation: the same move rule, mode switch, Metropolis test,
 * beta ramp and bookkeeping, and the node arithmetic of `ChainEvaluator`
 * (libm pow, log2 and exp; sums left to right from 0.0).  Built with
 * -ffp-contract=off, so no multiply-add is fused, the two engines give
 * bit-identical chains.  Two shortcuts keep the operations the same: each
 * edge keeps its node's running sums, so a dirty node re-sums only from its
 * first changed child (a wide node of 99 leaves re-sums half of them on
 * average, and a rejected step sums the same tails again instead of saving
 * them), and a node's multiplicities share one pow per run of equal
 * exponents.  The kernel draws the chain's uniforms itself, from
 * the PCG64 stream numpy's `default_rng(seed).random()` yields (O'Neill,
 * PCG, HMC-CS-2014-0905): a 128-bit LCG step, the XSL-RR output, then
 * `(x >> 11) * 2^-53`.  A chain runs in slices: everything it needs between
 * two calls lives in `struct chain`.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the chain kernel needs a compiler with unsigned __int128 for PCG64"
#endif

/* Node work is inlined into the step loop: as calls, some of whose arguments
 * go on the stack, it cost a step on the small n=10 models 5-8%. */
#define NODE_WORK static inline __attribute__((always_inline)) void

#define REL_FLOOR 1e-300  /* anneal._REL_FLOOR */
#define EPS_FLOOR 1e-30   /* model.EPSILON_FLOOR */

struct table {                  /* a CompiledModel's arrays, read in place */
    int64_t n_nodes, dim;
    const int64_t *slot;        /* group of the node's tolerance, -1 if none */
    const int8_t *needs_eps;    /* edge multiplicities depend on the tolerance */
    const int8_t *has_law;      /* leaf with gates */
    const double *law;          /* count, gates per log2(1/eps), offset */
    const int64_t *kid_ptr;     /* edges of node i: kid_ptr[i] .. kid_ptr[i+1] */
    const int64_t *kid;
    const double *coeff, *nexp; /* per edge */
    const int8_t *ceil;
    const int64_t *dirty_ptr;   /* nodes of group k: dirty_ptr[k] .. dirty_ptr[k+1] */
    const int64_t *dirty;
    const int64_t *dirty_from;  /* per dirty node, its first edge into a dirty child */
};

struct chain {
    double eps_target, beta_max, d_beta, delta, scale_error, scale_cost;
    int64_t total_steps, stop_at_feasible;
    uint64_t state_hi, state_lo, inc_hi, inc_lo;           /* PCG64, seeded */
    double *nodes;                  /* 4 n_nodes + 4 n_edges + 1 doubles of scratch */
    double *theta, *best_theta, *first_theta, *min_theta;  /* dim each */
    int8_t *t_cost_mode;                                   /* trace columns, or NULL */
    double *t_cost, *t_error;
    int8_t *t_accepted;
    double *t_delta_e;
    /* progress, kept between slices, and results */
    double beta, cost, error, best_cost, best_error, first_cost, min_error;
    int64_t steps_run, accepted, steps_to_feasible;
};

typedef unsigned __int128 u128;

#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

/* Step the LCG, then output a double in [0, 1) as numpy's PCG64 does. */
static double next_double(u128 *state, u128 inc)
{
    *state = *state * PCG_MULT + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned r = (unsigned)(*state >> 122);
    x = (x >> r) | (x << ((64 - r) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* A leaf's cost and error at its tolerance. */
NODE_WORK leaf(const struct table *t, const double *theta, double *cost, double *err, int64_t i)
{
    const double *law = t->law + 3 * i;
    double eps = theta[t->slot[i]];
    double unit = law[1] * log2(1.0 / eps) + law[2];
    cost[i] = law[0] * (unit > 0.0 ? unit : 0.0);
    err[i] = law[0] * eps;
}

/* Node i's edge multiplicities at its tolerance, with one pow per run of
 * edges with equal exponents (pow gives the same bits for the same inputs). */
NODE_WORK multiplicities(const struct table *t, const double *theta, double *m, int64_t i)
{
    double eps = theta[t->slot[i]], y = NAN, p = 0.0;
    for (int64_t j = t->kid_ptr[i]; j < t->kid_ptr[i + 1]; j++) {
        if (t->nexp[j] != y) {
            y = t->nexp[j];
            p = pow(eps, y);
        }
        double v = t->coeff[j] * p;
        m[j] = t->ceil[j] ? ceil(v) : v;
    }
}

/* Node i's totals, summing its children left to right from edge `from` on.
 * pc[j] and pe[j] hold the running sums after edge j, so starting from those
 * of edge from-1 (or from 0.0 at the node's first edge) does exactly the
 * additions of a sum over all of them. */
NODE_WORK resum(const struct table *t, const double *theta, double *cost, double *err,
                const double *m, double *pc, double *pe, int64_t i, int64_t from)
{
    int64_t lo = t->kid_ptr[i], hi = t->kid_ptr[i + 1], s = t->slot[i];
    double c = from > lo ? pc[from - 1] : 0.0, e = from > lo ? pe[from - 1] : 0.0;
    for (int64_t j = from; j < hi; j++) {
        c += m[j] * cost[t->kid[j]];
        e += m[j] * err[t->kid[j]];
        pc[j] = c;
        pe[j] = e;
    }
    if (s >= 0) e += theta[s];
    cost[i] = c;
    err[i] = e;
}

/* Recompute the dirty nodes of group k, children first.  A fresh node (its
 * own tolerance is group k's, and its multiplicities depend on it) sums from
 * its first edge, any other from its first dirty child.  Forward, the leaf
 * values and multiplicities overwritten go to `saved`, in visiting order;
 * with `undo` they come back from there and the same tails are summed again,
 * which restores every value the step changed, bit for bit. */
NODE_WORK refresh(const struct table *t, const double *theta, double *cost, double *err,
                  double *m, double *pc, double *pe, int64_t k, double *saved, int undo)
{
    for (int64_t d = t->dirty_ptr[k]; d < t->dirty_ptr[k + 1]; d++) {
        int64_t i = t->dirty[d], from = t->dirty_from[d];
        if (t->has_law[i]) {
            if (undo) {
                cost[i] = *saved++;
                err[i] = *saved++;
            } else {
                *saved++ = cost[i];
                *saved++ = err[i];
                leaf(t, theta, cost, err, i);
            }
            continue;
        }
        if (t->slot[i] == k && t->needs_eps[i]) {
            from = t->kid_ptr[i];
            int64_t edges = t->kid_ptr[i + 1] - from;
            if (undo) {
                for (int64_t j = 0; j < edges; j++) m[from + j] = saved[j];
            } else {
                for (int64_t j = 0; j < edges; j++) saved[j] = m[from + j];
                multiplicities(t, theta, m, i);
            }
            saved += edges;
        }
        resum(t, theta, cost, err, m, pc, pe, i, from);
    }
}

static void note_state(struct chain *c, int64_t dim, int64_t step)
{
    size_t bytes = (size_t)dim * sizeof(double);
    if (c->error < c->min_error) {
        c->min_error = c->error;
        memcpy(c->min_theta, c->theta, bytes);
    }
    if (c->error <= c->eps_target) {
        if (c->steps_to_feasible < 0) {
            memcpy(c->first_theta, c->theta, bytes);
            c->first_cost = c->cost;
            c->steps_to_feasible = step;
        }
        if (c->cost < c->best_cost) {
            memcpy(c->best_theta, c->theta, bytes);
            c->best_cost = c->cost;
            c->best_error = c->error;
        }
    }
}

/* The node values at c->theta; the chain's start, before its first step. */
void eb_start_chain(const struct table *t, struct chain *c)
{
    int64_t n = t->n_nodes, dim = t->dim, n_edges = t->kid_ptr[n];
    double *cost = c->nodes, *err = cost + n, *m = err + n, *pc = m + n_edges, *pe = pc + n_edges;
    memcpy(m, t->coeff, (size_t)n_edges * sizeof(double));
    for (int64_t i = n - 1; i >= 0; i--) {
        if (t->has_law[i]) {
            leaf(t, c->theta, cost, err, i);
            continue;
        }
        if (t->needs_eps[i]) multiplicities(t, c->theta, m, i);
        resum(t, c->theta, cost, err, m, pc, pe, i, t->kid_ptr[i]);
    }

    c->beta = 0.0;
    c->cost = cost[0];
    c->error = err[0];
    c->best_cost = INFINITY;
    c->best_error = NAN;
    c->first_cost = NAN;
    c->steps_to_feasible = -1;
    c->min_error = c->error;
    memcpy(c->min_theta, c->theta, (size_t)dim * sizeof(double));
    c->steps_run = c->accepted = 0;
    note_state(c, dim, 0);
}

/* Run up to `slice` more steps; 1 while the chain has steps left, else 0. */
int eb_run_chain(const struct table *t, struct chain *c, int64_t slice)
{
    int64_t n = t->n_nodes, dim = t->dim, n_edges = t->kid_ptr[n];
    double *cost = c->nodes, *err = cost + n, *m = err + n, *pc = m + n_edges, *pe = pc + n_edges;
    double *saved = pe + n_edges;  /* room for every leaf and multiplicity a step changes */
    const double ceiling = nextafter(1.0, 0.0);  /* model.EPSILON_CEILING */
    u128 state = (u128)c->state_hi << 64 | c->state_lo;
    const u128 inc = (u128)c->inc_hi << 64 | c->inc_lo;
    double beta = c->beta;
    int64_t step = c->steps_run;
    int64_t end = c->total_steps - step < slice ? c->total_steps : step + slice;
    for (; step < end; step++) {
        if (c->stop_at_feasible && c->steps_to_feasible >= 0) break;
        double r[4];
        for (int j = 0; j < 4; j++) r[j] = next_double(&state, inc);

        int64_t k = (int64_t)(r[0] * (double)dim);
        double factor = 1.0 + (1.0 - r[2]) * c->delta;
        double old = c->theta[k];
        double v = r[1] < 0.5 ? old * factor : old / factor;
        v = EPS_FLOOR > v ? EPS_FLOOR : v;
        v = ceiling < v ? ceiling : v;

        c->theta[k] = v;
        refresh(t, c->theta, cost, err, m, pc, pe, k, saved, 0);

        int cost_mode = c->error <= c->eps_target;
        double now = cost_mode ? c->cost : c->error;
        double next = cost_mode ? cost[0] : err[0];
        double scale = cost_mode ? c->scale_cost : c->scale_error;
        double floor_ = fabs(now);
        floor_ = REL_FLOOR > floor_ ? REL_FLOOR : floor_;
        double delta_e = scale * (next - now) / floor_;

        double p;  /* anneal.acceptance_probability */
        if (delta_e <= 0.0) p = 1.0;
        else if (isnan(delta_e) || delta_e == INFINITY) p = 0.0;
        else { p = exp(-beta * delta_e); p = p < 1.0 ? p : 1.0; }
        int accepted = r[3] <= p;
        if (accepted) {
            c->accepted++;
            c->cost = cost[0];
            c->error = err[0];
            note_state(c, dim, step + 1);
        } else {
            c->theta[k] = old;
            refresh(t, c->theta, cost, err, m, pc, pe, k, saved, 1);
        }
        double b = beta + c->d_beta;
        beta = c->beta_max < b ? c->beta_max : b;
        if (c->t_cost) {
            c->t_cost_mode[step] = (int8_t)cost_mode;
            c->t_cost[step] = c->cost;
            c->t_error[step] = c->error;
            c->t_accepted[step] = (int8_t)accepted;
            c->t_delta_e[step] = delta_e;
        }
    }
    c->state_hi = (uint64_t)(state >> 64);
    c->state_lo = (uint64_t)state;
    c->beta = beta;
    c->steps_run = step;
    return step < c->total_steps && !(c->stop_at_feasible && c->steps_to_feasible >= 0);
}
