"""Config grammar: parsing, diagnostics, and round-trip serialization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import networks
from phreactor import kernel, presets
from phreactor.network import (
    NetworkFormatError,
    NetworkValidationError,
    NoiseSpec,
    Reaction,
    ReactionNetwork,
    Species,
    parse_network,
    serialize_network,
    validate,
)

GOOD = presets.CONFIG_TEXT


def test_parse_benchmark_fields():
    net = parse_network(GOOD)
    assert net.species_names == ("A", "B")
    assert net.species[0].cp == 75.24
    assert net.species[1].h_ref == -4575.0
    assert net.reactions[0].k0f == 1.2e9
    assert net.reactions[0].Eb == 74826.0
    assert net.reactor.V == 1e-3
    assert net.reactor.lam == 0.05808
    assert net.reactor.R_gas == 8.314
    assert net.inlet.T_in == 310.0
    assert net.inlet.c_in == (2000.0, 0.0)
    assert net.noise == NoiseSpec(0.1, 5e-7, 0.05)


def test_numpy_views():
    net = parse_network(GOOD)
    np.testing.assert_array_equal(net.stoich_reactants, [[1.0], [0.0]])
    np.testing.assert_array_equal(net.stoich_products, [[0.0], [1.0]])
    np.testing.assert_array_equal(net.stoich_net, [[-1.0], [1.0]])
    np.testing.assert_array_equal(net.c_in, [2000.0, 0.0])
    np.testing.assert_array_equal(net.cp, [75.24, 60.0])


def test_key_value_pairs_order_free():
    text = GOOD.replace("cp=75.24 h_ref=0 s_ref=50.6",
                        "s_ref=50.6 cp=75.24 h_ref=0")
    assert parse_network(text) == parse_network(GOOD)


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + GOOD.replace(
        "[reactor]", "# interlude\n\n[reactor]  # trailing")
    assert parse_network(text) == parse_network(GOOD)


def test_r_gas_defaults():
    text = GOOD.replace(" R_gas=8.314", "")
    assert parse_network(text).reactor.R_gas == 8.314


def test_multiplicity_prefix_and_multi_term_sides():
    text = GOOD.replace("A -> B", "2A -> A + B")
    net = parse_network(text)
    assert net.reactions[0].reactants == (2, 0)
    assert net.reactions[0].products == (1, 1)


@pytest.mark.parametrize("compact, spaced", [
    ("A->B", "A -> B"), ("A ->B", "A -> B"), ("A-> B", "A -> B"),
    ("A\t->\tB", "A -> B"), ("2A->A+B", "2A -> A + B"),
    ("A+B -> 2B", "A + B -> 2B")])
def test_spacing_around_arrow_and_plus_is_free(compact, spaced):
    net = parse_network(GOOD.replace("A -> B", compact))
    assert net == parse_network(GOOD.replace("A -> B", spaced))
    assert parse_network(serialize_network(net)) == net


def test_round_trip_identity():
    net = parse_network(GOOD)
    assert parse_network(serialize_network(net)) == net


def test_round_trip_awkward_floats():
    # a whole-float multiplicity validates, so it is written 2A, not 2.0A
    rxn = Reaction((2.0, 0), (0, 1), k0f=1.2e9 + 0.1, Ef=1.0 / 3.0,
                   k0b=1e-300, Eb=0.0)
    net = parse_network(GOOD)
    net = ReactionNetwork(net.species, (rxn,), net.reactor, net.inlet,
                          net.noise)
    assert parse_network(serialize_network(net)) == net


def test_fractional_multiplicity_is_written_as_is():
    """An unvalidated multiplicity of 1.5 is written 1.5A, which the parser
    rejects, not truncated to 1A, which would parse into another network."""
    net = _invalid("fractional-multiplicity")
    text = serialize_network(net)
    assert "1.5A -> B" in text
    with pytest.raises(NetworkFormatError):
        parse_network(text)


def _pinned(old, new, message):
    """A mangle replacing ``old`` by ``new`` whose full error is ``message``."""
    def mangle(text):
        return text.replace(old, new)
    mangle.message = message
    return mangle


@pytest.mark.parametrize("mangle, line", [
    (lambda t: t.replace("[species]", "[species] extra"), 2),
    (lambda t: t.replace("A -> B", "A => B"), 6),
    (lambda t: t.replace("cp=75.24", "cp=abc"), 3),
    (lambda t: t.replace("A -> B", "A -> C"), 6),
    (lambda t: t.replace(" Ef=72331.8", ""), 6),
    (lambda t: t.replace("T_in=310.0", "T_in=310.0 c_X=1"), 10),
    (lambda t: "junk\n" + t, 1),
    pytest.param(_pinned(" lambda=0.05808", "", "line 8, column 1: [reactor] "
                         "is missing mandatory key 'lambda'"), 8,
                 id="reactor-missing-key"),
    pytest.param(_pinned("R_gas=8.314", "R_gas=8.314 Cp=1", "line 8, column 1: "
                         "[reactor] has unknown key 'Cp'"), 8,
                 id="reactor-unknown-key"),
    pytest.param(_pinned("T_in=310.0 ", "", "line 10, column 1: [inlet] is "
                         "missing mandatory key 'T_in'"), 10,
                 id="inlet-missing-key"),
    pytest.param(_pinned("rho1=0.1 ", "", "line 12, column 1: [noise] is "
                         "missing mandatory key 'rho1'"), 12,
                 id="noise-missing-key"),
    pytest.param(_pinned("rho3=0.05", "rho3=0.05 rho4=1", "line 12, column 1: "
                         "[noise] has unknown key 'rho4'"), 12,
                 id="noise-unknown-key"),
    # a zero multiplicity would serialize as the unparseable side '0'
    pytest.param(_pinned("A -> B", "0A -> B", "line 6, column 1: zero "
                         "multiplicity in reaction term '0A'"), 6,
                 id="zero-multiplicity-0A"),
    pytest.param(_pinned("A -> B", "A + 0B -> B", "line 6, column 5: zero "
                         "multiplicity in reaction term '0B'"), 6,
                 id="zero-multiplicity-A+0B"),
    pytest.param(_pinned("A -> B", "00B -> A", "line 6, column 1: zero "
                         "multiplicity in reaction term '00B'"), 6,
                 id="zero-multiplicity-00B"),
    pytest.param(_pinned("A cp=75.24", "A cp=75.24 junk", "line 3, column 12: "
                         "expected key=value, got 'junk'"), 3,
                 id="not-key-value"),
    pytest.param(_pinned("A cp=75.24", "A cp=75.24 =3", "line 3, column 12: "
                         "missing key in '=3'"), 3, id="missing-key"),
    pytest.param(_pinned("A cp=75.24", "A cp=75.24 cp=1", "line 3, column 12: "
                         "duplicate key 'cp'"), 3, id="duplicate-key"),
    pytest.param(_pinned("V=0.001", "V=0.001 junk", "line 8, column 9: "
                         "expected key=value, got 'junk'"), 8,
                 id="reactor-not-key-value"),
    pytest.param(_pinned("A -> B", "A + + B -> A", "line 6, column 5: empty "
                         "term in reaction side"), 6, id="empty-term"),
    pytest.param(_pinned("A -> B", "A -> B-", "line 6, column 6: bad reaction "
                         "term 'B-'"), 6, id="bad-term"),
    pytest.param(_pinned("A -> B", "A -> X", "line 6, column 6: unknown "
                         "species 'X' in reaction"), 6, id="unknown-species"),
    pytest.param(_pinned("A cp=75.24", "1A cp=75.24", "line 3, column 1: "
                         "expected species name, got '1A'"), 3,
                 id="species-name"),
    pytest.param(_pinned("A cp=75.24 h_ref=0 s_ref=50.6\nB cp=60.0 "
                         "h_ref=-4575.0 s_ref=180.2\n", "", "line 2, column 1: "
                         "section [species] must not be empty"), 2,
                 id="no-species"),
    pytest.param(_pinned("V=0.001 P=1e5 T_ref=300.0 lambda=0.05808 "
                         "R_gas=8.314\n", "", "line 7, column 1: [reactor] "
                         "is missing mandatory key 'V'"), 7,
                 id="empty-reactor"),
    pytest.param(_pinned("A -> B k0f", "A k0f=1 -> B k0f", "line 6, column 1: "
                         "reaction line needs '->'"), 6,
                 id="rate-before-arrow"),
    pytest.param(_pinned("A -> B k0f", "A -> k0f", "line 6, column 3: "
                         "reaction is missing a product side"), 6,
                 id="no-product-side"),
    pytest.param(_pinned("A -> B k0f", "-> B k0f", "line 6, column 1: "
                         "reaction is missing a reactant side"), 6,
                 id="no-reactant-side"),
    # one key table per section: a repeat on a later line is a duplicate too
    pytest.param(_pinned("R_gas=8.314", "R_gas=8.314\nV=0.002", "line 9, "
                         "column 1: duplicate key 'V'"), 9,
                 id="reactor-key-repeated-on-a-later-line"),
    pytest.param(_pinned("c_A=2000.0", "c_A=2000.0\nc_B=0 T_in=300", "line 11, "
                         "column 7: duplicate key 'T_in'"), 11,
                 id="inlet-key-repeated-on-a-later-line"),
    pytest.param(_pinned("rho2=5e-7 rho3=0.05", "rho2=5e-7\nrho3=0.05 rho1=1",
                         "line 13, column 11: duplicate key 'rho1'"), 13,
                 id="noise-key-repeated-on-a-later-line"),
    # the last content line, comments and blank lines after it not counted
    pytest.param(_pinned("[noise]\nrho1=0.1 rho2=5e-7 rho3=0.05\n", "\n# end\n",
                         "line 10, column 1: missing section [noise]"), 10,
                 id="missing-section-last-content-line"),
])
def test_format_errors_carry_line(mangle, line):
    with pytest.raises(NetworkFormatError) as err:
        parse_network(mangle(GOOD))
    assert err.value.line == line
    assert f"line {line}" in str(err.value)
    if hasattr(mangle, "message"):
        assert str(err.value) == mangle.message


@pytest.mark.parametrize("reactants, products", [
    ((0, 0), (0, 1)), ((1, 0), (0, 0))])
def test_validate_reports_a_side_with_no_species(reactants, products):
    net = parse_network(GOOD)
    bad = ReactionNetwork(net.species,
                          (Reaction(reactants, products, 1.0, 1.0, 1.0, 1.0),),
                          net.reactor, net.inlet, net.noise)
    assert validate(bad) == ["reaction 0 has a side with no species"]


def test_duplicate_species_rejected():
    text = GOOD.replace("[reactions]",
                        "A cp=1 h_ref=0 s_ref=0\n[reactions]")
    with pytest.raises(NetworkFormatError) as err:
        parse_network(text)
    assert "duplicate species" in str(err.value)


def test_section_order_enforced():
    text = GOOD.replace("[reactor]", "[noise2]")
    with pytest.raises(NetworkFormatError):
        parse_network(text)
    swapped = GOOD.replace("[inlet]", "[ZZZ]").replace("[noise]", "[inlet]") \
                  .replace("[ZZZ]", "[noise]")
    with pytest.raises(NetworkFormatError) as err:
        parse_network(swapped)
    assert "out of order" in str(err.value)


def test_missing_section_reported():
    text = GOOD.replace("[noise]\nrho1=0.1 rho2=5e-7 rho3=0.05\n", "")
    with pytest.raises(NetworkFormatError) as err:
        parse_network(text)
    assert "missing section [noise]" in str(err.value)


def test_validation_diagnostics_exact_strings():
    net = parse_network(GOOD)
    bad = ReactionNetwork(
        species=(Species("A", -1.0, 0.0, 50.6), net.species[1]),
        reactions=(Reaction((1, 0), (1, 0), 1.0, 1.0, 1.0, 1.0),),
        reactor=net.reactor,
        inlet=net.inlet,
        noise=NoiseSpec(0.1, -5e-7, 0.05),
    )
    diags = validate(bad)
    assert "species.A.cp must be > 0" in diags
    assert "reaction 0 has zero net stoichiometry" in diags
    assert "noise.rho2 must be >= 0" in diags


def _invalid(case):
    """The benchmark network with one invariant broken, built directly: the
    parser stops before :func:`validate` could see any of these."""
    net = parse_network(GOOD)
    (a, b), (rxn,) = net.species, net.reactions
    if case == "species-name":
        return replace(net, species=(replace(a, name="1A"), b))
    if case == "duplicate-species":
        return replace(net, species=(a, replace(b, name="A")))
    if case == "no-species":
        return replace(net, species=(), reactions=(),
                       inlet=replace(net.inlet, c_in=()))
    if case == "stoichiometry-length":
        return replace(net, reactions=(
            replace(rxn, reactants=(1, 0, 0), products=(0, 1, 0)),))
    if case == "negative-multiplicity":
        return replace(net, reactions=(replace(rxn, reactants=(1, -1)),))
    if case == "fractional-multiplicity":
        return replace(net, reactions=(replace(rxn, reactants=(1.5, 0)),))
    return replace(net, inlet=replace(net.inlet, c_in=(2000.0,)))


@pytest.mark.parametrize("case, diagnostic", [
    ("species-name", "species name '1A' is not an identifier"),
    ("duplicate-species", "species.A duplicated"),
    ("no-species", "species must contain at least one entry"),
    ("stoichiometry-length",
     "reaction 0 stoichiometry length must equal the species count 2"),
    ("negative-multiplicity", "reaction 0 has a negative multiplicity"),
    ("fractional-multiplicity", "reaction 0 multiplicity of A must be an "
     "integer from 0 to 16, not 1.5"),
    ("c_in-length", "inlet.c_in length must equal the species count 2"),
])
def test_validate_diagnostics_the_parser_never_reaches(case, diagnostic):
    assert validate(_invalid(case)) == [diagnostic]


def test_rate_gathers_reject_a_fractional_multiplicity():
    """The rates gather c_j once per unit of multiplicity: a multiplicity
    of 1.5 raises instead of being truncated to 1."""
    with pytest.raises(ValueError, match="integers >= 0"):
        _invalid("fractional-multiplicity").step_constants


def _constants_by_arrays(net):
    """``kernel.step_constants`` as built through the network's numpy
    views: each array made, negated or stacked, then ``.tolist()``."""
    rx, rho = net.reactor, net.noise
    k = kernel.StepConstants(
        net.cp.tolist(), (-net.cp).tolist(), net.h_ref.tolist(),
        net.s_ref.tolist(), np.concatenate((net.k0f, net.k0b)).tolist(),
        (-np.concatenate((net.Ef, net.Eb))).tolist(),
        *kernel._factors(np.hstack((net.stoich_reactants,
                                    net.stoich_products))),
        net.stoich_net.tolist(), net.stoich_net.T.tolist(), rho.rho1,
        rho.rho2, rho.rho3, 0.5 * rho.rho2 ** 2, 0.5 * rho.rho3 ** 2, rx.lam,
        rx.V, rx.R_gas, rx.T_ref, rx.P * rx.V, net.c_in.tolist(), None,
        np.exp, np.log, np.where, np.sqrt, np.logical_or.reduce,
        np.logical_and.reduce)
    return k._replace(h_in=kernel.dot(k.c_in, np.add(
        net.cp * (net.inlet.T_in - rx.T_ref), net.h_ref).tolist()))


def _numbers(value):
    """Every number in a nested list or tuple of numbers."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    return [value]


@settings(max_examples=200, deadline=None)
@given(net=networks())
def test_constants_from_fields_equal_the_array_route(net):
    """step_constants reads the Species and Reaction fields: every field
    equals the array route's, and every constant is a Python float (the
    factor slots are int indices)."""
    k, want = kernel.step_constants(net), _constants_by_arrays(net)
    for name, got, expected in zip(k._fields, k, want):
        assert got == expected, name
        if name not in ("slots", "grad_slots", "exp", "log", "where", "sqrt",
                        "any", "all"):
            assert {type(x) for x in _numbers(got)} <= {float}, name


def test_parse_rejects_invalid_network():
    text = GOOD.replace("rho2=5e-7", "rho2=-5e-7")
    with pytest.raises(NetworkValidationError) as err:
        parse_network(text)
    assert "noise.rho2 must be >= 0" in err.value.diagnostics


@pytest.mark.parametrize("old, new, diagnostic", [
    ("V=0.001", "V=inf", "reactor.V must be finite"),
    ("P=1e5", "P=inf", "reactor.P must be finite"),
    ("T_ref=300.0", "T_ref=inf", "reactor.T_ref must be finite"),
    ("lambda=0.05808", "lambda=inf", "reactor.lambda must be finite"),
    ("R_gas=8.314", "R_gas=nan", "reactor.R_gas must be finite"),
    ("A cp=75.24", "A cp=inf", "species.A.cp must be finite"),
    ("k0f=1.2e9", "k0f=inf", "reactions[0].k0f must be finite"),
    ("Ef=72331.8", "Ef=inf", "reactions[0].Ef must be finite"),
    ("k0b=1.33e8", "k0b=nan", "reactions[0].k0b must be finite"),
    ("Eb=74826.0", "Eb=inf", "reactions[0].Eb must be finite"),
    ("T_in=310.0", "T_in=inf", "inlet.T_in must be finite"),
    ("c_A=2000.0", "c_A=inf", "inlet.c_A must be finite"),
    ("rho1=0.1", "rho1=inf", "noise.rho1 must be finite"),
    ("rho2=5e-7", "rho2=-inf", "noise.rho2 must be finite"),
    ("rho3=0.05", "rho3=nan", "noise.rho3 must be finite"),
    ("c_A=2000.0", "c_A=0", "inlet.c_in must have at least one positive entry"),
    ("A -> B", "1000000000A -> B", "reaction 0 multiplicity of A must be an "
     "integer from 0 to 16, not 1000000000"),
    ("A -> B", "16A -> 17B", "reaction 0 multiplicity of B must be an "
     "integer from 0 to 16, not 17"),
])
def test_parse_rejects_non_finite_values(old, new, diagnostic):
    assert old in GOOD
    with pytest.raises(NetworkValidationError) as err:
        parse_network(GOOD.replace(old, new))
    assert err.value.diagnostics == [diagnostic]


@pytest.mark.parametrize("factors, diagnostic", [
    ({"f1": -1.0}, "noise.rho1 must be >= 0"),
    ({"f2": float("nan")}, "noise.rho2 must be finite"),
    ({"f3": float("inf")}, "noise.rho3 must be finite"),
])
def test_with_noise_validates(factors, diagnostic):
    net = parse_network(GOOD)
    with pytest.raises(NetworkValidationError) as err:
        net.with_noise(net.noise.scaled(**factors))
    assert err.value.diagnostics == [diagnostic]


def test_with_noise_copies():
    net = parse_network(GOOD)
    net2 = net.with_noise(net.noise.scaled(f2=1e6))
    assert net2.noise.rho2 == 5e-7 * 1e6
    assert net2.species is net.species
    assert net.noise.rho2 == 5e-7


def test_empty_reaction_section_allowed():
    text = GOOD.replace("A -> B k0f=1.2e9 Ef=72331.8 k0b=1.33e8 Eb=74826.0\n",
                        "")
    net = parse_network(text)
    assert net.reactions == ()
    assert net.stoich_net.shape == (2, 0)
    assert parse_network(serialize_network(net)) == net
