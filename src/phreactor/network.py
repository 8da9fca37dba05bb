"""Reaction network description and its on-disk config format.

A network document is line oriented, UTF-8, with ``#`` starting a comment that
runs to end of line.  Blank lines are ignored.  Five sections appear in fixed
order::

    [species]
    A cp=75.24 h_ref=0 s_ref=50.6       # name, then key=value pairs
    [reactions]
    A -> B k0f=1.2e9 Ef=72331.8 k0b=1.33e8 Eb=74826
    [reactor]
    V=0.001 P=1e5 T_ref=300 lambda=0.05808 R_gas=8.314
    [inlet]
    T_in=310 c_A=2000                   # c_<name>, omitted species enter at 0
    [noise]
    rho1=0.1 rho2=5e-7 rho3=0.05

Reaction sides are ``+``-separated terms; a term is a species name with an
optional positive integer multiplicity prefix (``2A`` means two of ``A``).
A species' multiplicity on one side, its terms summed, is at most
``MAX_MULTIPLICITY`` (16).
Spacing around ``->`` and ``+`` is free: ``2A->A+B`` reads as ``2A -> A + B``.
``R_gas`` defaults to 8.314 J/(mol K); every other key shown is mandatory.
Within a section the key=value pairs may come in any order and over any
number of lines, each key at most once; parsing is deterministic.
``serialize_network`` writes floats with shortest round-tripping decimals,
so parse -> serialize -> parse reproduces the network field for field.

Units throughout: volume m^3, pressure Pa, temperatures K, heat capacities
J/(mol K), molar enthalpies J/mol, molar entropies J/(mol K), concentrations
mol/m^3, rate prefactors 1/s (times concentration powers), activation
energies J/mol, heat transfer coefficient J/(K s).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel

R_GAS_DEFAULT = 8.314

#: The largest multiplicity of a species on one side of a reaction.
MAX_MULTIPLICITY = 16

_SECTION_ORDER = ("species", "reactions", "reactor", "inlet", "noise")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class NetworkFormatError(ValueError):
    """Structural error in a network document (carries line and column)."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NetworkValidationError(ValueError):
    """A parsed document produced a network that violates its invariants."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class Species:
    """One species: constant-pressure heat capacity and reference state."""

    name: str
    cp: float
    h_ref: float
    s_ref: float


@dataclass(frozen=True)
class Reaction:
    """One reversible mass-action reaction with Arrhenius rate constants.

    ``reactants``/``products`` hold one stoichiometric multiplicity per
    network species, aligned with the species order.
    """

    reactants: tuple[int, ...]
    products: tuple[int, ...]
    k0f: float
    Ef: float
    k0b: float
    Eb: float


@dataclass(frozen=True)
class ReactorSpec:
    """Vessel constants: volume, pressure, thermodynamic reference
    temperature, and jacket heat transfer coefficient."""

    V: float
    P: float
    T_ref: float
    lam: float
    R_gas: float = R_GAS_DEFAULT


@dataclass(frozen=True)
class InletSpec:
    """Feed temperature and feed concentrations (one per species)."""

    T_in: float
    c_in: tuple[float, ...]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise intensities: rho1 on the reaction flux, rho2 on the inlet flow
    input, rho3 on the heat input."""

    rho1: float
    rho2: float
    rho3: float

    def scaled(self, f1: float = 1.0, f2: float = 1.0, f3: float = 1.0) -> "NoiseSpec":
        return NoiseSpec(self.rho1 * f1, self.rho2 * f2, self.rho3 * f3)


@dataclass(frozen=True)
class ReactionNetwork:
    """A validated reactor description: species, reactions, vessel, inlet,
    noise.  Immutable; derived numpy views are cached."""

    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]
    reactor: ReactorSpec
    inlet: InletSpec
    noise: NoiseSpec

    @property
    def n_species(self) -> int:
        return len(self.species)

    @cached_property
    def species_names(self) -> tuple[str, ...]:
        return tuple(sp.name for sp in self.species)

    @cached_property
    def cp(self) -> np.ndarray:
        return np.array([sp.cp for sp in self.species])

    @cached_property
    def h_ref(self) -> np.ndarray:
        return np.array([sp.h_ref for sp in self.species])

    @cached_property
    def s_ref(self) -> np.ndarray:
        return np.array([sp.s_ref for sp in self.species])

    @cached_property
    def stoich_reactants(self) -> np.ndarray:
        """Reactant multiplicities, shape (n_species, n_reactions)."""
        return np.array([r.reactants for r in self.reactions],
                        dtype=float).reshape(-1, self.n_species).T

    @cached_property
    def stoich_products(self) -> np.ndarray:
        """Product multiplicities, shape (n_species, n_reactions)."""
        return np.array([r.products for r in self.reactions],
                        dtype=float).reshape(-1, self.n_species).T

    @cached_property
    def stoich_net(self) -> np.ndarray:
        """Net stoichiometry products-minus-reactants, per column one
        reaction."""
        return self.stoich_products - self.stoich_reactants

    @cached_property
    def c_in(self) -> np.ndarray:
        return np.array(self.inlet.c_in)

    @cached_property
    def step_constants(self) -> kernel.StepConstants:
        return kernel.step_constants(self)

    @cached_property
    def float_view(self) -> "ReactionNetwork":
        return kernel.float_view(self)

    @cached_property
    def k0f(self) -> np.ndarray:
        return np.array([r.k0f for r in self.reactions])

    @cached_property
    def k0b(self) -> np.ndarray:
        return np.array([r.k0b for r in self.reactions])

    @cached_property
    def Ef(self) -> np.ndarray:
        return np.array([r.Ef for r in self.reactions])

    @cached_property
    def Eb(self) -> np.ndarray:
        return np.array([r.Eb for r in self.reactions])

    def with_noise(self, noise: NoiseSpec) -> "ReactionNetwork":
        """Copy of this network with a different noise block; raises
        :class:`NetworkValidationError` if the copy fails :func:`validate`."""
        return _validated(ReactionNetwork(self.species, self.reactions,
                                          self.reactor, self.inlet, noise))


def _numeric(diags: list[str], name: str, value: float, bound: str = "") -> None:
    """Diagnose one numeric field: it must be finite and, given ``bound``
    ("> 0" or ">= 0"), compare so with zero."""
    if not math.isfinite(value):
        diags.append(f"{name} must be finite")
    elif bound and (value < 0 or bound == "> 0" and value == 0):
        diags.append(f"{name} must be {bound}")


def validate(net: ReactionNetwork) -> list[str]:
    """Check every network invariant; return one diagnostic per violation.

    Each diagnostic names the offending field, e.g.
    ``"species.A.cp must be > 0"``.  An empty list means the network is
    valid.
    """
    diags: list[str] = []
    seen: set[str] = set()
    for sp in net.species:
        if not _NAME_RE.fullmatch(sp.name):
            diags.append(f"species name {sp.name!r} is not an identifier")
        if sp.name in seen:
            diags.append(f"species.{sp.name} duplicated")
        seen.add(sp.name)
        _numeric(diags, f"species.{sp.name}.cp", sp.cp, "> 0")
        _numeric(diags, f"species.{sp.name}.h_ref", sp.h_ref)
        _numeric(diags, f"species.{sp.name}.s_ref", sp.s_ref)
    if not net.species:
        diags.append("species must contain at least one entry")

    p = net.n_species
    for i, rxn in enumerate(net.reactions):
        if len(rxn.reactants) != p or len(rxn.products) != p:
            diags.append(f"reaction {i} stoichiometry length must equal the "
                         f"species count {p}")
            continue
        if any(k < 0 for k in rxn.reactants + rxn.products):
            diags.append(f"reaction {i} has a negative multiplicity")
        for name, k in zip(net.species_names * 2, rxn.reactants + rxn.products):
            if not k < 0 and not (k <= MAX_MULTIPLICITY and k % 1 == 0):
                diags.append(f"reaction {i} multiplicity of {name} must be an "
                             f"integer from 0 to {MAX_MULTIPLICITY}, not {k!r}")
        if not (any(rxn.reactants) and any(rxn.products)):
            diags.append(f"reaction {i} has a side with no species")
        if rxn.reactants == rxn.products:
            diags.append(f"reaction {i} has zero net stoichiometry")
        for attr in ("k0f", "k0b", "Ef", "Eb"):
            _numeric(diags, f"reactions[{i}].{attr}", getattr(rxn, attr), ">= 0")

    r = net.reactor
    for name, value, bound in (("V", r.V, "> 0"), ("P", r.P, ">= 0"),
                               ("T_ref", r.T_ref, "> 0"),
                               ("lambda", r.lam, ">= 0"),
                               ("R_gas", r.R_gas, "> 0")):
        _numeric(diags, f"reactor.{name}", value, bound)

    _numeric(diags, "inlet.T_in", net.inlet.T_in, "> 0")
    if len(net.inlet.c_in) != p:
        diags.append(f"inlet.c_in length must equal the species count {p}")
    else:
        for name, c in zip(net.species_names, net.inlet.c_in):
            _numeric(diags, f"inlet.c_{name}", c, ">= 0")
        if p and not any(c > 0 for c in net.inlet.c_in):
            diags.append("inlet.c_in must have at least one positive entry")

    for attr in ("rho1", "rho2", "rho3"):
        _numeric(diags, f"noise.{attr}", getattr(net.noise, attr), ">= 0")
    return diags


def _validated(net: ReactionNetwork) -> ReactionNetwork:
    """``net`` itself; raises :class:`NetworkValidationError` with the
    diagnostics of :func:`validate` if there are any."""
    diags = validate(net)
    if diags:
        raise NetworkValidationError(diags)
    return net


# ---------------------------------------------------------------------------
# parsing


def _parse_pairs(tokens, line: int, pairs: dict[str, float]) -> dict[str, float]:
    """Add the key=value (col, token) pairs of one line to ``pairs``, the
    table of its section or line, and return it."""
    for col, tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise NetworkFormatError(f"expected key=value, got {tok!r}", line, col)
        if not key:
            raise NetworkFormatError(f"missing key in {tok!r}", line, col)
        if key in pairs:
            raise NetworkFormatError(f"duplicate key {key!r}", line, col)
        try:
            pairs[key] = float(value)
        except ValueError:
            raise NetworkFormatError(f"expected a number, got {value!r}", line,
                                     col + len(key) + 1) from None
    return pairs


def _require(pairs: dict[str, float], keys: tuple[str, ...], what: str, line: int,
             optional: tuple[str, ...] = ()) -> None:
    for key in keys:
        if key not in pairs:
            raise NetworkFormatError(f"{what} is missing mandatory key {key!r}", line)
    extra = set(pairs) - set(keys) - set(optional)
    if extra:
        raise NetworkFormatError(f"{what} has unknown key {sorted(extra)[0]!r}", line)


def _parse_side(text: str, start: int, names: list[str], line: int) -> tuple[int, ...]:
    """Parse one reaction side like ``2A + B``, found at offset ``start`` of
    its line, into per-species counts; an error names the column of its
    term."""
    counts = [0] * len(names)
    for term in text.split("+"):
        col = start + len(term) - len(term.lstrip()) + 1
        start += len(term) + 1
        term = term.strip()
        if not term:
            raise NetworkFormatError("empty term in reaction side", line, col)
        m = re.fullmatch(r"(\d*)\s*([A-Za-z_][A-Za-z0-9_]*)", term)
        if not m:
            raise NetworkFormatError(f"bad reaction term {term!r}", line, col)
        digits, name = m.groups()
        mult = int(digits or 1)
        if mult == 0:
            raise NetworkFormatError(f"zero multiplicity in reaction term "
                                     f"{term!r}", line, col)
        if name not in names:
            raise NetworkFormatError(f"unknown species {name!r} in reaction",
                                     line, col)
        counts[names.index(name)] += mult
    return tuple(counts)


def parse_network(text: str) -> ReactionNetwork:
    """Parse a network document; raise on any structural or semantic error.

    Raises :class:`NetworkFormatError` (with line/column) for syntax
    problems — bad section order, malformed tokens, unknown species,
    missing mandatory or duplicate keys, non-numeric values, duplicate
    species — and :class:`NetworkValidationError` if the parsed network
    fails :func:`validate`.
    """
    # section name -> (header line, [(line_no, text, [(col, token), ...])])
    sections: dict[str, tuple[int, list]] = {}
    current: str | None = None
    last = 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line, tokens, end = raw.split("#", 1)[0], [], 0
        for tok in line.split():  # (column, token), no regex
            end = line.index(tok, end) + len(tok)
            tokens.append((end - len(tok) + 1, tok))
        if not tokens:
            continue
        last = line_no
        col0, tok0 = tokens[0]
        if tok0.startswith("["):
            if len(tokens) > 1:
                raise NetworkFormatError("section header must be alone on its line",
                                         line_no, tokens[1][0])
            name = tok0[1:-1]
            if not tok0.endswith("]") or name not in _SECTION_ORDER:
                raise NetworkFormatError(f"unknown section {tok0!r}", line_no, col0)
            if current and _SECTION_ORDER.index(name) <= _SECTION_ORDER.index(current):
                raise NetworkFormatError(
                    f"section [{name}] out of order or repeated", line_no, col0)
            current = name
            sections[name] = (line_no, [])
        elif current is None:
            raise NetworkFormatError("content before first section header",
                                     line_no, col0)
        else:
            sections[current][1].append((line_no, line, tokens))

    missing = [s for s in _SECTION_ORDER if s not in sections]
    if missing:
        raise NetworkFormatError(f"missing section [{missing[0]}]", last)

    # species
    species: list[Species] = []
    names: list[str] = []
    header, lines = sections["species"]
    for line_no, _, tokens in lines:
        col0, name = tokens[0]
        if not _NAME_RE.fullmatch(name):
            raise NetworkFormatError(f"expected species name, got {name!r}",
                                     line_no, col0)
        if name in names:
            raise NetworkFormatError(f"duplicate species {name!r}", line_no, col0)
        pairs = _parse_pairs(tokens[1:], line_no, {})
        _require(pairs, ("cp", "h_ref", "s_ref"), f"species {name}", line_no)
        species.append(Species(name, pairs["cp"], pairs["h_ref"], pairs["s_ref"]))
        names.append(name)
    if not species:
        raise NetworkFormatError("section [species] must not be empty", header)

    # reactions: the sides are the text before and after the first '->'
    # that precedes the first key=value token
    reactions: list[Reaction] = []
    for line_no, line, tokens in sections["reactions"][1]:
        end = next((col - 1 for col, tok in tokens if "=" in tok), len(line))
        reactant_text, arrow, product_text = line[:end].partition("->")
        if not arrow:
            raise NetworkFormatError("reaction line needs '->'", line_no, tokens[0][0])
        col = len(reactant_text) + 1  # the column of the arrow
        if not (reactant_text.strip() and product_text.strip()):
            side = "product" if reactant_text.strip() else "reactant"
            raise NetworkFormatError(f"reaction is missing a {side} side",
                                     line_no, col)
        reactants = _parse_side(reactant_text, 0, names, line_no)
        products = _parse_side(product_text, col + 1, names, line_no)
        pairs = _parse_pairs([t for t in tokens if t[0] > end], line_no, {})
        _require(pairs, ("k0f", "Ef", "k0b", "Eb"),
                 f"reaction {len(reactions)}", line_no)
        reactions.append(Reaction(reactants, products, pairs["k0f"], pairs["Ef"],
                                  pairs["k0b"], pairs["Eb"]))

    def table(name: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()):
        """The one key table of section ``name``; a missing or unknown key
        names its first line (the header's, for an empty section)."""
        header, lines = sections[name]
        pairs: dict[str, float] = {}
        for line_no, _, tokens in lines:
            _parse_pairs(tokens, line_no, pairs)
        _require(pairs, keys, f"[{name}]", lines[0][0] if lines else header,
                 optional)
        return pairs

    rx = table("reactor", ("V", "P", "T_ref", "lambda"), ("R_gas",))
    reactor = ReactorSpec(rx["V"], rx["P"], rx["T_ref"], rx["lambda"],
                          rx.get("R_gas", R_GAS_DEFAULT))
    inl = table("inlet", ("T_in",), tuple(f"c_{name}" for name in names))
    inlet = InletSpec(inl["T_in"], tuple(inl.get(f"c_{name}", 0.0) for name in names))
    no = table("noise", ("rho1", "rho2", "rho3"))
    noise = NoiseSpec(no["rho1"], no["rho2"], no["rho3"])

    return _validated(ReactionNetwork(tuple(species), tuple(reactions),
                                      reactor, inlet, noise))


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _side_text(counts: tuple[int, ...], names: tuple[str, ...]) -> str:
    return " + ".join(name if mult == 1 else
                      f"{int(mult) if mult % 1 == 0 else mult}{name}"
                      for mult, name in zip(counts, names) if mult)


def serialize_network(net: ReactionNetwork) -> str:
    """Render a network back to the config format.

    Floats are written with full round-trip precision, so
    ``parse_network(serialize_network(net)) == net`` field for field.
    """
    lines = ["[species]"]
    for sp in net.species:
        lines.append(f"{sp.name} cp={_fmt(sp.cp)} h_ref={_fmt(sp.h_ref)} "
                     f"s_ref={_fmt(sp.s_ref)}")
    lines.append("[reactions]")
    for rxn in net.reactions:
        lines.append(f"{_side_text(rxn.reactants, net.species_names)} -> "
                     f"{_side_text(rxn.products, net.species_names)} "
                     f"k0f={_fmt(rxn.k0f)} Ef={_fmt(rxn.Ef)} "
                     f"k0b={_fmt(rxn.k0b)} Eb={_fmt(rxn.Eb)}")
    r = net.reactor
    lines.append("[reactor]")
    lines.append(f"V={_fmt(r.V)} P={_fmt(r.P)} T_ref={_fmt(r.T_ref)} "
                 f"lambda={_fmt(r.lam)} R_gas={_fmt(r.R_gas)}")
    lines.append("[inlet]")
    inlet_parts = [f"T_in={_fmt(net.inlet.T_in)}"]
    for name, c in zip(net.species_names, net.inlet.c_in):
        if c != 0.0:
            inlet_parts.append(f"c_{name}={_fmt(c)}")
    lines.append(" ".join(inlet_parts))
    lines.append("[noise]")
    n = net.noise
    lines.append(f"rho1={_fmt(n.rho1)} rho2={_fmt(n.rho2)} rho3={_fmt(n.rho3)}")
    return "\n".join(lines) + "\n"
