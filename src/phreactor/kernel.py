"""The reactor balance formulas on raw values, each written once.

Every function takes the network and plain values (U in J, N in mol, T in
K) and validates nothing: the public modules check shapes, the mole floor
and T > 0 at their boundary (see :mod:`thermo`), and :mod:`sim` adds its
own guards.  ``net``'s numbers and functions come from ``net.step_constants``.

The kernel is species-major: a per-species quantity (N, h, mu/T, c, ...)
is a sequence of p items and a per-reaction one a sequence of r items, a
list or an array with the species or reaction first.  An item, like U, T,
q or Qdot, is a Python float for one state, whose exp and log numpy
computes (the network's :func:`float_view`, built once per network), and
an array, such as a (B,) column, for a batch, so each formula is one loop
over species or reactions for both.  A float divisor of 0.0, as the float
view's log of x <= 0 or sqrt of x < 0, either of +inf or NaN, raises
ZeroDivisionError where numpy gives inf or NaN and a warning, so a formula
on it is redone on numpy: by the entry points below, by the lone
steady-state solve, and by :func:`on_floats`, also where a value comes out
inf or NaN, since a float overflows without numpy's warning.  Every sum over
species or reactions runs left to right, t_0 + t_1 + ... (:func:`total`,
:func:`dot`), whatever the CPU core type (BLAS ``ddot`` varies with it) or
the operand shapes; every other operation keeps one order, and squares are
``x * x`` (a float's ``x ** 2`` calls ``pow``).

Every function is row-safe: each row of a batch result has the bits of the
lone call on that row, but for a NaN's sign, which for two NaNs in a
product depends on the element's place in numpy's vectorised loop
(canonical NaNs would cost an ``np.isnan`` select on every product).

A step computes each quantity once (:func:`feedback_terms` hands its flow
column to :func:`em_update`) from the cached :class:`StepConstants`.  No
rate takes ``pow``: c_j ** alpha is c_j listed alpha times among a
product's factors, multiplied in species order, times the constants of
:func:`rate_constants`.  The paper's conditions are in :func:`margins`.

On the float view, a lone step's :func:`temperature`, :func:`feedback_terms`
and :func:`em_update` run straight-line code that :func:`_trace` generates
from their bodies once per argument layout: the same float operations in
the same order, so the same bits, without the interpreter's loops.  An
argument not a float or a list of floats, or a divisor of 0.0, runs the
body on the plain network, every float made a numpy float64.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from functools import reduce
from operator import add, mul, sub, truediv

import numpy as np

#: See :func:`step_constants`.
StepConstants = namedtuple("StepConstants", "cp neg_cp h_ref s_ref k0 neg_E "
                           "slots grad_slots tail nu nu_T rho1 rho2 rho3 "
                           "half_rho2_sq half_rho3_sq lam V R T_ref PV c_in "
                           "h_in exp log where sqrt any all")


def step_constants(net) -> StepConstants:
    """``net``'s constants as floats read from its fields, cached as
    ``net.step_constants``: cp, -cp, h_ref, s_ref; k0 and -E, forward then
    backward, with the :func:`_factors` of their multiplicities; nu by species
    and by reaction; rho1, rho2, rho3, rho2^2/2, rho3^2/2, lambda, V, R, T_ref,
    PV, c_in, c_in^T h(T_in); numpy's exp, log, where and sqrt, and its logical
    or and logical and reductions as any and all."""
    rx, rho, sp, rxns = net.reactor, net.noise, net.species, net.reactions
    cp, p = [float(s.cp) for s in sp], range(len(sp))
    nu = [[float(r.products[j] - r.reactants[j]) for r in rxns] for j in p]
    k = StepConstants(
        cp, [-c for c in cp], [float(s.h_ref) for s in sp],
        [float(s.s_ref) for s in sp],
        [float(r.k0f) for r in rxns] + [float(r.k0b) for r in rxns],
        [-float(r.Ef) for r in rxns] + [-float(r.Eb) for r in rxns], *_factors(
            [[r.reactants[j] for r in rxns] + [r.products[j] for r in rxns]
             for j in p]), nu, [list(column) for column in zip(*nu)],
        rho.rho1, rho.rho2, rho.rho3, 0.5 * rho.rho2 ** 2, 0.5 * rho.rho3 ** 2,
        rx.lam, rx.V, rx.R_gas, rx.T_ref, rx.P * rx.V,
        [float(c) for c in net.inlet.c_in], None, np.exp, np.log, np.where,
        np.sqrt, np.logical_or.reduce, np.logical_and.reduce)
    return k._replace(h_in=dot(k.c_in, _enthalpy(k, net.inlet.T_in)))


def float_view(net):
    """``net`` whose exp and log return numpy's results as Python floats
    (``math.exp`` differs) and sqrt math's, a log of x <= 0 or a sqrt of
    x < 0, either of +inf or NaN, raising ZeroDivisionError, whose where
    picks floats and any and all are bool, with the ``traces`` of
    :func:`_traced`, ``net`` at None: one state's formulas run on floats."""
    view = copy.copy(net)
    view.__dict__["step_constants"] = net.step_constants._replace(
        exp=lambda x: float(np.exp(x)), any=bool, all=bool,
        log=lambda x: float(np.log(x)) if 0.0 < x < math.inf else 1.0 / 0.0,
        sqrt=lambda x: math.sqrt(x) if 0.0 <= x < math.inf else 1.0 / 0.0,
        where=lambda c, x, y: x if c else y)
    view.__dict__["traces"] = {None: net}  # None: the fallback
    return view


def batch_view(net):
    """``net`` with 0-d array constants, as a batch steps on it: the same
    bits, and numpy combines them with (B,) columns faster than floats."""
    stepping = copy.copy(net)
    stepping.__dict__["step_constants"] = StepConstants(
        *(_floats_as(np.array, v) for v in net.step_constants))
    return stepping


def _floats_as(kind, value):
    """kind(x) for each float x in ``value`` and in its lists and tuples."""
    return (type(value)(_floats_as(kind, v) for v in value)
            if isinstance(value, (list, tuple))
            else kind(value) if type(value) is float else value)


def on_floats(net, formula, *args):
    """``formula(net, *args)``, scalars and lists of them at one state, run
    on the :func:`float_view` with arrays and numpy scalars as floats; run as
    called where a float divisor is 0.0 or a value inf or NaN, for numpy's
    values and warnings."""
    try:
        result = formula(net.float_view, *(
            a.tolist() if hasattr(a, "tolist") else a for a in args))
        if math.isfinite(sum(sum(r) if isinstance(r, list) else r
                             for r in result)):
            return result
    except ZeroDivisionError:
        pass
    return formula(net, *args)


class _Operand:
    """A float operand of a body that :func:`_trace` runs: each operation
    it takes part in appends a line to its tape, operands in the body's
    order, any other operand a constant; a branch on it is an error."""

    __array_ufunc__ = None  # a numpy scalar constant defers to it
    __bool__ = None  # bool() raises TypeError

    def __init__(self, name, tape):
        self.name, self.tape = name, tape


for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
    setattr(_Operand, f"__{_name}__", lambda a, b, s=_op: a.tape.emit(
        f"{a.name} {s} {a.tape.ref(b)}"))
    setattr(_Operand, f"__r{_name}__", lambda a, b, s=_op: a.tape.emit(
        f"{a.tape.ref(b)} {s} {a.name}"))


class _Tape:
    """One trace: its lines, its operands v0, v1, ... and its constants k0,
    k1, ..., each bound by id and kept alive, so that the id is unique."""

    def __init__(self):
        self.lines, self.bound, self.count = [], {}, 0

    def ref(self, x):
        """x's name in the generated code."""
        return x.name if type(x) is _Operand else self.bound.setdefault(
            id(x), (f"k{len(self.bound)}", x))[0]

    def emit(self, expression=None):
        """A new operand, assigned ``expression`` unless it is an input."""
        v, self.count = _Operand(f"v{self.count}", self), self.count + 1
        if expression is not None:
            self.lines.append(f"    {v.name} = {expression}")
        return v

    def operands(self, value):
        """``value``, a new operand for each float in its lists and tuples;
        TypeError for any other item, such as an array."""
        if isinstance(value, (list, tuple)):
            return type(value)(map(self.operands, value))
        if type(value) is not float:
            raise TypeError(f"traces floats, not {type(value).__name__}")
        return self.emit()

    def code(self, value):
        """The expression that builds ``value`` from its operands and
        constants, or the target that unpacks it."""
        if not isinstance(value, (list, tuple)):
            return self.ref(value)
        items = "".join(f"{self.code(v)}, " for v in value)
        return f"[{items}]" if isinstance(value, list) else f"({items})"


def _trace(net, body, args):
    """``body`` on the float view ``net`` as a generated function of
    ``args``: it unpacks them, raises TypeError unless each float among them
    is a Python float, else runs the body's float operations in its order."""
    k, tape, tracing = net.step_constants, _Tape(), copy.copy(net.traces[None])
    tracing.__dict__["step_constants"] = k._replace(
        exp=lambda x: tape.emit(f"exp({tape.ref(x)})"),
        log=lambda x: tape.emit(f"log({tape.ref(x)})"))
    inputs = [None if a is None else tape.operands(a) for a in args]
    floats = " is ".join(f"type(v{i})" for i in range(tape.count))
    result = tape.code(body(tracing, *inputs))
    source = "\n".join(
        [f"def run({', '.join(f'a{i}' for i in range(len(args)))}):"]
        + [f"    {tape.code(i)} = a{n}" for n, i in enumerate(inputs)
           if i is not None]
        + [f"    if not float is {floats}:", "        raise TypeError"]
        + tape.lines + [f"    return {result}"])
    names = {"exp": k.exp, "log": k.log, **dict(tape.bound.values())}
    exec(compile(source, f"<traced kernel.{body.__name__}>", "exec"), names)
    return names["run"]


def _traced(net, layout, *args):
    """``kernel.<layout[0]>(net, *args)`` on the float view ``net`` by its
    code for ``layout``, traced once into ``net.traces``; by the body on the
    plain network, every float a numpy float64, where an argument is not a
    float or a list of floats or a divisor is 0.0: numpy's values, warnings."""
    traces, body = net.traces, _BODIES[layout[0]]
    try:  # an argument not a float raises TypeError, and tracing keeps nothing
        return (traces.get(layout)
                or traces.setdefault(layout, _trace(net, body, args)))(*args)
    except (TypeError, ZeroDivisionError):  # or a float divisor of 0.0
        return body(traces[None], *(_floats_as(np.float64, a) for a in args))


def total(terms):
    """The terms added left to right, t_0 + t_1 + ...; 0.0 for none."""
    terms = iter(terms)
    return reduce(add, terms, next(terms, 0.0))


def dot(a, b):
    """a_0 b_0 + a_1 b_1 + ..., added left to right; 0.0 for none."""
    terms = map(mul, a, b)
    return reduce(add, terms, next(terms, 0.0))


def solve(net, A, b) -> list:
    """x with A x = b, A p rows of p items and b p items: Gaussian
    elimination with partial pivoting, each lower row that beats the pivot
    row swapping up (so the first largest |pivot|), and back substitution,
    in one order.  A zero pivot raises ZeroDivisionError marking its rows."""
    k, p = net.step_constants, len(b)
    rows, singular = [[*a, b_j] for a, b_j in zip(A, b)], False
    for j, row in enumerate(rows):
        for low in rows[j + 1:]:
            if k.any(up := abs(low[j]) > abs(row[j])):
                pairs = [*zip(row[j:], low[j:])]
                row[j:] = [k.where(up, y, x) for x, y in pairs]
                low[j:] = [k.where(up, x, y) for x, y in pairs]
        zero = row[j] == 0.0  # divided as 1.0: its column is zero below it
        singular, pivot = singular | zero, k.where(zero, 1.0, row[j])
        for low in rows[j + 1:]:
            m = low[j] / pivot
            low[j + 1:] = map(sub, low[j + 1:], [m * c for c in row[j + 1:]])
    if k.any(singular):
        raise ZeroDivisionError("zero pivot", singular)
    x = []
    for j, row in reversed([*enumerate(rows)]):
        x.insert(0, reduce(sub, map(mul, row[j + 1:p], x), row[p]) / row[j])
    return x


def _enthalpy(k, T):
    dT = T - k.T_ref
    return [cp * dT + h for cp, h in zip(k.cp, k.h_ref)]


def enthalpy(net, T) -> list:
    """h_j(T) = cp_j (T - T_ref) + h_ref_j, J/mol."""
    return _enthalpy(net.step_constants, T)


def temperature(net, U, N):
    """T(U, N) = T_ref + (U + P V - N^T h_ref) / N^T cp."""
    if "traces" in net.__dict__:  # a float view: see _traced
        return _traced(net, ("temperature",), U, N)
    k = net.step_constants
    return k.T_ref + (U + k.PV - dot(N, k.h_ref)) / dot(N, k.cp)


def potentials(net, N, T, N_sum):
    """The closures other than S at (N, T), given N_sum = sum N:
    (h, mu/T, theta, log(T / T_ref), log x); :func:`closures` takes S from
    the last two."""
    k = net.step_constants
    h, R = _enthalpy(k, T), k.R
    log_tau = k.log(T / k.T_ref)
    log_x = [k.log(n / N_sum) for n in N]
    mu_over_T = [neg_cp * log_tau + R * lx - s + hj / T
                 for neg_cp, lx, s, hj in zip(k.neg_cp, log_x, k.s_ref, h)]
    return h, mu_over_T, T * T * dot(N, k.cp), log_tau, log_x


def closures(net, N, T):
    """(h, mu/T, S, theta) at (N, T); see :mod:`thermo` for the formulas."""
    k = net.step_constants
    h, mu_over_T, theta, log_tau, log_x = potentials(net, N, T, total(N))
    S = dot(N, [cp * log_tau + s - k.R * lx
                for cp, s, lx in zip(k.cp, k.s_ref, log_x)])
    return h, mu_over_T, S, theta


def _factors(stoich):
    """(slots, grad_slots, tail): the factors of prod_l c_l ** alpha_l for
    each column alpha of ``stoich``, and of its derivative in each c_j (row
    j), as slots of (c, tail = (0.0, 1.0, ...)), slot p + v reading v: c_l
    alpha_l times, but alpha_j, then c_j alpha_j - 1 times, at l = j."""
    p, columns = len(stoich), list(zip(*stoich))
    if not all(a >= 0 and a % 1 == 0 for column in columns for a in column):
        raise ValueError("multiplicities must be integers >= 0: "
                         f"{[list(map(float, column)) for column in columns]}")
    columns = [[int(a) for a in column] for column in columns]

    def factors(column, j=None):  # derivative in c_j, or the product
        return tuple(f for l, a in enumerate(column)
                     for f in ([p + a] + [l] * (a - 1) if l == j
                               else [l] * a))

    return (tuple(factors(column) for column in columns),
            tuple(tuple(factors(column, j) for column in columns)
                  for j in range(p)),
            tuple(map(float, range(max(map(max, columns), default=0) + 1))))


def _product(c, factors):
    """The items of c at ``factors`` (see :func:`_factors`), multiplied left
    to right; 1.0 for none.  A square c * c is correctly rounded."""
    values = map(c.__getitem__, factors)
    return reduce(mul, values, next(values, 1.0))


def rate_constants(net, T) -> list:
    """Arrhenius constants k0 exp(-E / (R T)) of the forward then the
    backward direction of each reaction, 2 r items: the ``k_T`` that
    :func:`mass_action` and :func:`mass_action_jacobian` take."""
    k = net.step_constants
    RT = k.R * T
    return [k0 * k.exp(neg_E / RT) for k0, neg_E in zip(k.k0, k.neg_E)]


def mass_action(net, c, k_T) -> tuple[list, list]:
    """Mass-action rates (r_f, r_b) at concentrations c, given the
    Arrhenius constants k_T = :func:`rate_constants` at the temperature;
    a caller that holds T fixed over many c evaluates k_T once."""
    rates = [k * _product(c, factors)
             for k, factors in zip(k_T, net.step_constants.slots)]
    return rates[:len(rates) // 2], rates[len(rates) // 2:]


def mass_action_jacobian(net, c, k_T):
    """(dr_f/dc, dr_b/dc), each r rows of p items: the exact derivatives of
    the :func:`mass_action` rates in c, given the same constants k_T, entry
    (i, j) = k_i alpha_ij c_j ** (alpha_ij - 1) prod_{l != j} c_l ** alpha_il
    for the multiplicities alpha of that side; exact at c_j = 0."""
    k = net.step_constants
    c = [*c, *k.tail]  # slot p + v reads the constant v
    J = [[k_i * _product(c, row[i]) for row in k.grad_slots]
         for i, k_i in enumerate(k_T)]
    return J[:len(J) // 2], J[len(J) // 2:]


def reaction_flux(net, rate_net) -> list:
    """V nu (r_f - r_b): moles produced by reaction, mol/s."""
    k = net.step_constants
    return [k.V * dot(nu_j, rate_net) for nu_j in k.nu]


def affinity(net, mu_over_T, T) -> list:
    """Reaction affinities -nu^T mu, J/mol."""
    mu = [m * T for m in mu_over_T]
    return [-dot(nu_i, mu) for nu_i in net.step_constants.nu_T]


#: Affinities smaller than this (J/mol) fall back to the logarithmic-mean
#: weight in strict mode.
AFFINITY_GUARD = 1e-9


def log_mean(k, a, b):
    """Logarithmic mean (a - b) / ln(a / b) by k's where and log, extended
    continuously: 0 where an argument is nonpositive (an absent rate carries
    no dissipation weight), the midpoint within 1e-9 relative.  Unselected
    quotients see safe stand-in operands, so only selected ones can warn."""
    d = a - b
    absent = (a <= 0.0) | (b <= 0.0)
    other = absent | (abs(d) <= 1e-9 * (a + b))  # no quotient
    ratio = k.where(other, 2.0, a) / k.where(other, 1.0, b)
    return k.where(other, k.where(absent, 0.0, 0.5 * (a + b)),
                   d / k.log(ratio))


def damping_weights(net, forward, backward, T, affinity=None) -> list:
    """Per-reaction weights c_i of the damping matrix (see
    :func:`damping_apply`) from the rates (r_f, r_b): logmean(r_f, r_b) / (R T)
    >= 0 or, given the affinities, the strict (r_f - r_b) / affinity wherever
    |affinity| > :data:`AFFINITY_GUARD`, the log-mean weight elsewhere."""
    k = net.step_constants
    RT = k.R * T
    coef = [log_mean(k, f, b) / RT for f, b in zip(forward, backward)]
    if affinity is None:
        return coef
    strict = [abs(a) > AFFINITY_GUARD for a in affinity]
    return [k.where(s, (f - b) / k.where(s, a, 1.0), w)
            for f, b, a, s, w in zip(forward, backward, affinity, strict, coef)]


def damping_apply(net, c, T, v) -> list:
    """R_NN v for the composition block R_NN = V T sum_i c_i dz_i dz_i^T of
    the damping matrix, dz_i = -nu_i (reactants minus products), weights c."""
    k = net.step_constants
    weighted = [c_i * dot(nu_i, v) for c_i, nu_i in zip(c, k.nu_T)]
    VT = k.V * T
    return [VT * dot(nu_j, weighted) for nu_j in k.nu]


def feed_gap(net, c) -> list:
    """dc = c_in - c at concentrations c = N / V, mol/m^3."""
    return list(map(sub, net.step_constants.c_in, c))


def flow_column(net, N, h):
    """(g00, dc, c): the flow column (g00, dc) of g,
    g00 = c_in^T h(T_in) - N^T h / V, and the concentrations c = N / V."""
    k = net.step_constants
    c = [n / k.V for n in N]
    return k.h_in - dot(N, h) / k.V, feed_gap(net, c), c


def mixing_scale(net, N, h, theta, g00, dc, N_sum):
    """theta (g00, dc)^T Hess(-S) (g00, dc) for a direction (g00, dc) on
    (U, N), with N_sum = sum N, explicitly

        dc^T (h h^T - (theta R / N_sum) 11^T + diag(theta R / N_j)) dc
        - 2 g00 h^T dc + g00^2;

    the mixing scale M when (g00, dc) is the flow column of g."""
    hdc, dc_sum = dot(h, dc), total(dc)
    theta_R = theta * net.step_constants.R
    quad = (hdc * hdc - theta_R / N_sum * (dc_sum * dc_sum)
            + theta_R * dot(dc, map(truediv, dc, N)))
    return quad - 2.0 * g00 * hdc + g00 * g00


def feedthrough(net, M, theta):
    """Diagonal of delta = diag(rho2^2 M / (2 theta), rho3^2 / (2 theta))."""
    k = net.step_constants
    return k.half_rho2_sq * M / theta, k.half_rho3_sq / theta


#: See :func:`margins`.
Margins = namedtuple("Margins", "input_noise_holds input_noise_lhs "
                     "input_noise_rhs feedthrough_norm trace_holds trace_lhs "
                     "trace_rhs reaction_noise_holds reaction_noise_lhs "
                     "reaction_noise_rhs grad_flux")


def margins(net, N, T, h, mu_over_T, theta, grad_N, V_star) -> Margins:
    """The paper's three conditions at (N, T), each as (holds, lhs, rhs),
    from one flow column and one rate evaluation, with M_d the mixing scale
    along (0, d) and f = nu (r_f - r_b): rho2^4 M^2 + rho3^4 < 4 theta^2,
    and ||delta||_F; (1/2) rho1^2 M_flux / theta <= grad_N^T R_NN grad_N
    (log-mean weights, to 1e-12 relative) for a storage with Hessian
    Hess(-S) and gradient grad_N; (1/2) rho1^2 V_star M_f / theta <=
    (r_f - r_b)^T A / T.  Last grad_N^T flux: L[A] - y^T u = trace lhs + it."""
    k = net.step_constants
    half_rho1_sq = 0.5 * k.rho1 ** 2
    g00, dc, c = flow_column(net, N, h)
    forward, backward = mass_action(net, c, rate_constants(net, T))
    rate_net, N_sum = list(map(sub, forward, backward)), total(N)
    f = [dot(nu_j, rate_net) for nu_j in k.nu]
    flux = [k.V * f_j for f_j in f]  # reaction_flux
    M = mixing_scale(net, N, h, theta, g00, dc, N_sum)
    noise_lhs = k.rho2 ** 4 * M * M + k.rho3 ** 4  # pow of constants
    noise_rhs = 4.0 * theta * theta
    trace_lhs = half_rho1_sq * mixing_scale(net, N, h, theta, 0.0, flux,
                                            N_sum) / theta
    trace_rhs = dot(grad_N, damping_apply(
        net, damping_weights(net, forward, backward, T), T, grad_N))
    rxn_lhs = half_rho1_sq * V_star * mixing_scale(net, N, h, theta, 0.0, f,
                                                   N_sum) / theta
    rxn_rhs = dot(rate_net, affinity(net, mu_over_T, T)) / T
    scale = abs(trace_rhs)  # tolerance 1e-12 max(1, scale), NaN kept
    return Margins(
        noise_lhs < noise_rhs, noise_lhs, noise_rhs,
        0.5 * k.sqrt(noise_lhs) / theta,
        trace_lhs <= trace_rhs + 1e-12 * k.where(1.0 > scale, 1.0, scale),
        trace_lhs, trace_rhs, rxn_lhs <= rxn_rhs, rxn_lhs, rxn_rhs,
        dot(grad_N, flux))


def availability(S_star, pi_star, x_star, S, x):
    """A(x) = S(x*) - S(x) + pi*^T (x - x*), x = (U, N_1, ..., N_p)."""
    return S_star - S + dot(pi_star, map(sub, x, x_star))


def availability_gradient(T_star, mu_star_over_T, T, mu_over_T):
    """grad A = (1/T* - 1/T, mu/T - mu*/T*), as (U part, N part)."""
    return 1.0 / T_star - 1.0 / T, list(map(sub, mu_over_T, mu_star_over_T))


def feedback_terms(net, N, T, T_star, mu_star_over_T):
    """(d1, d2, o1, o2, g00, dc, c): delta = diag(d1, d2) and g^T grad A =
    (o1, o2) in the feedback u = -(I + K delta)^(-1) K g^T grad A, and the
    :func:`flow_column` (g00, dc, c) they use, which :func:`em_update`
    takes too.  sum N feeds both the potentials and M; S is not computed."""
    if "traces" in net.__dict__:  # a float view: see _traced
        return _traced(net, ("feedback_terms",), N, T, T_star, mu_star_over_T)
    N_sum = total(N)
    h, mu_over_T, theta, _, _ = potentials(net, N, T, N_sum)
    g00, dc, c = flow_column(net, N, h)
    d1, d2 = feedthrough(net, mixing_scale(net, N, h, theta, g00, dc, N_sum),
                         theta)
    grad_U, grad_N = availability_gradient(T_star, mu_star_over_T, T, mu_over_T)
    return d1, d2, g00 * grad_U + dot(dc, grad_N), grad_U, g00, dc, c


def sde_terms(net, N, T, q, Qdot, column=None):
    """Drift (dU, dN) and diffusion entries (a, b_U, b_N, c_U) under inputs
    (q, Qdot): reaction noise a = rho1 flux on N, flow noise rho2 q (g00, dc),
    heat noise c_U = rho3 Qdot.  ``column`` is the :func:`flow_column`
    (g00, dc, c) at (N, T) if the caller has it; the rates are taken at
    its concentrations c."""
    g00, dc, c = column or flow_column(net, N, enthalpy(net, T))
    forward, backward = mass_action(net, c, rate_constants(net, T))
    flux = reaction_flux(net, list(map(sub, forward, backward)))
    k = net.step_constants
    b = k.rho2 * q
    return ((g00 * q + Qdot, [f + q * d for f, d in zip(flux, dc)]),
            ([k.rho1 * f for f in flux], b * g00, [b * d for d in dc],
             k.rho3 * Qdot))


def em_update(net, U, N, T, q, Qdot, dt, dW=None, column=None):
    """One Euler-Maruyama update of (U, N); noise-free when dW is None.
    dW holds the increments of the three channels, one item each;
    ``column`` is passed to :func:`sde_terms`."""
    if "traces" in net.__dict__:  # a float view: see _traced
        return _traced(net, ("em_update", dW is None, column is None), U, N, T,
                       q, Qdot, dt, dW, column)
    (dU, dN), (a, b_U, b_N, c_U) = sde_terms(net, N, T, q, Qdot, column)
    if dW is None:
        return U + dU * dt, [n + d * dt for n, d in zip(N, dN)]
    w0, w1, w2 = dW
    return (U + dU * dt + (b_U * w1 + c_U * w2),
            [n + d * dt + a_j * w0 + b_j * w1
             for n, d, a_j, b_j in zip(N, dN, a, b_N)])


def jacket_temperature(net, Qdot, T):
    """T_w = Qdot / lambda + T, NaN without a heat transfer path."""
    lam = net.step_constants.lam
    return Qdot / lam + T if lam > 0 else np.nan


#: The bodies :func:`_traced` traces, as defined here.
_BODIES = {f.__name__: f for f in (temperature, feedback_terms, em_update)}
