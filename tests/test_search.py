import ast
import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import textwrap
import tracemalloc
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest

from repthresh import (
    Bracket,
    FreenessConstraint,
    Mode,
    Outcome,
    SearchCertificate,
    Word,
    bracket_threshold,
    candidate_exponents,
    default_target_length,
    extend_search,
    naive_oracle,
    parse_word,
    verify_certificate,
)
from repthresh import search
from repthresh.schemas import load_schema
from repthresh.search import _REVERIFY_MAX_ALPHABET, _REVERIFY_MAX_DEPTH, _canonical_words
from reference_kernel import ref_bracket_threshold, ref_extend_search, ref_verify_certificate


def geq(l, num, den=1):
    return FreenessConstraint(l, Fraction(num, den), Mode.GEQ)


def strict(l, num, den=1):
    return FreenessConstraint(l, Fraction(num, den), Mode.STRICT)


# --- extend_search ------------------------------------------------------------


def test_binary_squares_exhaust_at_three():
    cert = extend_search(2, geq(1, 2), 10)
    assert cert.outcome is Outcome.EXHAUSTED
    assert cert.max_depth == 3
    assert cert.witness is None


def test_binary_overlaps_are_avoidable():
    cert = extend_search(2, strict(1, 2), 200)
    assert cert.outcome is Outcome.REACHED
    assert cert.witness is not None
    assert len(cert.witness) == 200
    assert naive_oracle(cert.witness, strict(1, 2)) is None


def test_unary_alphabet():
    cert = extend_search(1, geq(1, 3, 2), 5)
    assert cert.outcome is Outcome.EXHAUSTED
    assert cert.max_depth == 1


def test_pigeonhole_bound_sample():
    # at threshold 1 + 1/(a*l) every word of length a*l+1 contains a repeat
    for a, l in [(2, 1), (3, 2), (4, 1)]:
        c = geq(l, a * l + 1, a * l)
        cert = extend_search(a, c, a * l + 1)
        assert cert.outcome is Outcome.EXHAUSTED
        assert cert.max_depth <= a * l


def test_reached_monotone_in_threshold():
    base = extend_search(3, geq(1, 9, 5), 60)
    assert base.outcome is Outcome.REACHED
    higher = extend_search(3, geq(1, 11, 6), 60)
    assert higher.outcome is Outcome.REACHED
    # the lower-threshold witness satisfies the higher threshold too
    assert naive_oracle(base.witness, geq(1, 11, 6)) is None


def test_outcome_independent_of_order_and_symmetry():
    # full small-instance grid: every candidate threshold with denominator
    # up to 5, both modes; the canonical search against the reference's
    # unreduced one, which tries every letter at every depth.  The
    # lexicographically first clean word is canonical, so even the
    # witnesses agree.
    for a in (2, 3):
        for l in (1, 2, 3):
            for r in candidate_exponents(5, 1, 2):
                for mode in (Mode.GEQ, Mode.STRICT):
                    c = FreenessConstraint(l, r, mode)
                    got = extend_search(a, c, 30)
                    outcome, max_depth, _, witness = ref_extend_search(a, c, 30, symmetry=False)
                    same = (got.outcome.value, got.max_depth, got.witness) == (outcome, max_depth, witness)
                    assert same, (a, l, str(r), mode)
                    assert witness is None or naive_oracle(witness, c) is None


def test_node_budget():
    cert = extend_search(2, strict(1, 2), 200, node_budget=20)
    assert cert.outcome is Outcome.BUDGET_EXCEEDED
    assert cert.nodes_visited == 21
    assert cert.witness is None


def test_node_budget_below_one_is_rejected():
    for budget in (0, -1):
        with pytest.raises(ValueError):
            extend_search(2, strict(1, 2), 200, node_budget=budget)
        with pytest.raises(ValueError):
            bracket_threshold(2, 1, max_denominator=2, target_length=20, node_budget=budget)
    assert extend_search(2, strict(1, 2), 200, node_budget=1).nodes_visited == 2


def test_extend_search_validation():
    with pytest.raises(ValueError):
        extend_search(0, geq(1, 2), 5)
    with pytest.raises(ValueError):
        extend_search(2, geq(1, 2), 0)
    with pytest.raises(ValueError):
        FreenessConstraint(1, Fraction(1), Mode.GEQ)  # threshold must exceed 1
    with pytest.raises(ValueError, match="alphabet size must be >= 2"):
        bracket_threshold(1, 1)
    with pytest.raises(ValueError, match="min_period must be >= 1"):
        bracket_threshold(2, 0)  # raised by FreenessConstraint


def test_huge_alphabet_tries_only_the_first_letters():
    # a letter absent from the prefix is always clean, so no search over
    # target_length letters or more looks past the first target_length
    target = 40
    for c in (geq(1, 2), strict(2, 3, 2)):
        small = extend_search(target, c, target)
        tracemalloc.start()
        try:
            huge = extend_search(10**6, c, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert huge.outcome is small.outcome is Outcome.REACHED
        assert huge.nodes_visited == small.nodes_visited
        assert huge.witness.letters == small.witness.letters
        assert huge.alphabet_size == 10**6


def test_default_target_length():
    assert default_target_length(2, 1) == 200
    assert default_target_length(4, 3) == 240


# --- candidate_exponents --------------------------------------------------------


def test_candidate_exponents_examples():
    assert candidate_exponents(3, 1, 2) == [
        Fraction(4, 3),
        Fraction(3, 2),
        Fraction(5, 3),
        Fraction(2),
    ]
    assert candidate_exponents(1, 1, 2) == [Fraction(2)]
    assert candidate_exponents(2, 1, Fraction(3, 2)) == [Fraction(3, 2)]


def test_candidate_exponents_complete_and_sorted():
    lo, hi, limit = Fraction(1), Fraction(2), 7
    got = candidate_exponents(limit, lo, hi)
    assert got == sorted(got)
    assert len(set(got)) == len(got)
    # membership oracle: every reduced fraction in range appears
    from math import gcd

    expected = {
        Fraction(n, d)
        for d in range(1, limit + 1)
        for n in range(1, 3 * limit)
        if gcd(n, d) == 1 and lo < Fraction(n, d) <= hi
    }
    assert set(got) == expected
    for f in got:
        assert f.denominator <= limit and lo < f <= hi


def test_candidate_exponents_empty_range():
    assert candidate_exponents(1, Fraction(3, 2), Fraction(9, 5)) == []
    with pytest.raises(ValueError):
        candidate_exponents(3, 2, 1)


# --- verify_certificate ----------------------------------------------------------


def test_verify_reached():
    cert = extend_search(2, strict(1, 2), 50)
    res = verify_certificate(cert)
    assert res.ok and res.independently_verified


def test_verify_tampered_witness():
    good = extend_search(3, geq(1, 2), 20)
    assert good.outcome is Outcome.REACHED
    bad = SearchCertificate(
        alphabet_size=3,
        constraint=good.constraint,
        outcome=Outcome.REACHED,
        max_depth=None,
        nodes_visited=good.nodes_visited,
        witness=parse_word("01100212", 3),  # contains the square "11"
        elapsed=good.elapsed,
    )
    res = verify_certificate(bad)
    assert not res
    assert not res.ok
    assert "violates" in res.detail
    for witness, detail in [(None, "without witness"), (Word(3, ()), "empty witness")]:
        with pytest.raises(ValueError, match=detail):
            dataclasses.replace(bad, witness=witness)


def test_verify_exhausted_by_reenumeration():
    cert = extend_search(2, geq(1, 2), 10)
    res = verify_certificate(cert)
    assert res.ok and res.independently_verified
    assert "16 words of length 4" in res.detail


def test_verify_exhausted_builds_a_word_only_for_a_counterexample(monkeypatch):
    # the re-proof checks bare letter tuples; a Word is built only to
    # render the counterexample
    honest = extend_search(3, geq(2, 4, 3), 40)
    assert honest.outcome is Outcome.EXHAUSTED and honest.max_depth == 7
    built = []

    def counting_word(*args):
        built.append(args)
        return Word(*args)

    monkeypatch.setattr(search, "Word", counting_word)
    res = verify_certificate(honest)
    assert res.ok and res.independently_verified
    assert built == []
    res = verify_certificate(dataclasses.replace(honest, max_depth=honest.max_depth - 1))
    assert not res.ok and "counterexample" in res.detail
    assert len(built) == 1


def test_verify_exhausted_walks_the_canonical_words_once(monkeypatch):
    # one walk of the prefixes of length max_depth, whose children are
    # scanned in place, also shows that max_depth is attained; only an
    # EXHAUSTED certificate under the caps is walked
    calls = []
    walk = search._canonical_words

    def counting_walk(alphabet_size, length):
        calls.append(length)
        return walk(alphabet_size, length)

    monkeypatch.setattr(search, "_canonical_words", counting_walk)
    honest = extend_search(2, geq(1, 2), 10)
    assert honest.max_depth == 3
    res = verify_certificate(honest)
    assert res.ok and res.independently_verified
    assert calls == [3]
    calls.clear()
    for cert in (
        extend_search(2, strict(1, 2), 50),  # REACHED
        extend_search(2, strict(1, 2), 200, node_budget=5),  # BUDGET_EXCEEDED
        dataclasses.replace(honest, max_depth=_REVERIFY_MAX_DEPTH + 1),  # over the cap
    ):
        assert verify_certificate(cert).ok
    assert calls == []


def test_verify_exhausted_opens_only_clean_prefixes(monkeypatch):
    # Each canonical prefix of length max_depth is scanned once, and only
    # the children of a clean one are scanned: a violating prefix's run is
    # in every child.  The full walk makes 1,187 scans here.
    calls = []
    scan = search._naive_wins

    def counting_scan(*args):
        calls.append(args[0])
        return scan(*args)

    monkeypatch.setattr(search, "_naive_wins", counting_scan)
    honest = extend_search(3, geq(2, 4, 3), 40)
    assert honest.max_depth == 7
    res = verify_certificate(honest)
    assert res.ok and res.detail == "re-enumerated all 6561 words of length 8"
    lengths = Counter(map(len, calls))
    assert lengths == {7: 365, 8: 6}  # the children of the 2 clean prefixes


def test_verifier_shares_no_code_with_the_scanners():
    # The re-proof is independent only if it reads none of the kernel's
    # or the fast scanners' machinery, only the naive oracle's scan.  Every
    # function of this module that the verifier names, directly or through
    # another such function, is checked.
    banned = {
        "ViolationKernel", "first_period", "lowest_start", "_wins",
        "_recurrences", "_encode", "exists_repetition", "max_exponent",
    }
    todo, checked = [search.verify_certificate], set()
    while todo:
        fn = todo.pop()
        if fn.__name__ in checked:
            continue
        checked.add(fn.__name__)
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert names.isdisjoint(banned), (fn.__name__, names & banned)
        todo += [
            obj for obj in map(vars(search).get, names)
            if inspect.isfunction(obj) and obj.__module__ == search.__name__
        ]
    assert {"verify_certificate", "_canonical_words", "_canonical_letters"} <= checked


def test_verify_exhausted_catches_understated_depth():
    honest = extend_search(2, geq(1, 2), 10)
    lying = SearchCertificate(
        alphabet_size=2,
        constraint=honest.constraint,
        outcome=Outcome.EXHAUSTED,
        max_depth=2,  # claims no square-free word of length 3; "010" is one
        nodes_visited=honest.nodes_visited,
        witness=None,
        elapsed=honest.elapsed,
    )
    res = verify_certificate(lying)
    assert not res.ok
    assert "counterexample" in res.detail


def test_verify_exhausted_catches_overstated_depth():
    honest = extend_search(2, geq(1, 2), 10)
    lying = SearchCertificate(
        alphabet_size=2,
        constraint=honest.constraint,
        outcome=Outcome.EXHAUSTED,
        max_depth=8,  # no square-free binary word of length 8 exists
        nodes_visited=honest.nodes_visited,
        witness=None,
        elapsed=honest.elapsed,
    )
    res = verify_certificate(lying)
    assert not res.ok
    assert "claimed depth" in res.detail


def test_verify_rejects_negative_depth():
    cert = SearchCertificate(
        alphabet_size=2,
        constraint=geq(1, 2),
        outcome=Outcome.EXHAUSTED,
        max_depth=3,
        nodes_visited=1,
        witness=None,
        elapsed=0.0,
    )
    for depth in (-1, -3):
        with pytest.raises(ValueError, match="negative max_depth"):
            dataclasses.replace(cert, max_depth=depth)
    with pytest.raises(ValueError, match="EXHAUSTED without max_depth"):
        dataclasses.replace(cert, max_depth=None)


def test_verify_rejects_negative_nodes_visited():
    for cert in [
        extend_search(2, geq(1, 2), 10),  # EXHAUSTED at depth 3
        extend_search(2, strict(1, 2), 40),  # REACHED
        extend_search(2, strict(1, 2), 200, node_budget=5),  # BUDGET_EXCEEDED
    ]:
        assert verify_certificate(cert).ok
        for nodes in (-1, -5):
            with pytest.raises(ValueError, match=f"negative nodes_visited {nodes}"):
                dataclasses.replace(cert, nodes_visited=nodes)
        for depth in (-1, -5):
            with pytest.raises(ValueError, match=f"negative max_depth {depth}"):
                dataclasses.replace(cert, max_depth=depth)
        for a in (0, -3):
            for bad in (cert, dataclasses.replace(cert, max_depth=0)):
                with pytest.raises(ValueError, match=f"alphabet size {a} below 1"):
                    dataclasses.replace(bad, alphabet_size=a)


def test_verify_rejects_witness_over_another_alphabet():
    with pytest.raises(ValueError, match="witness over 3 letters"):
        SearchCertificate(
            alphabet_size=2,
            constraint=geq(1, 2),
            outcome=Outcome.REACHED,
            max_depth=None,
            nodes_visited=3,
            witness=Word(3, (0, 1, 2)),  # square-free, but letter 2 is not binary
            elapsed=0.0,
        )


def test_verify_large_exhausted_is_flagged():
    cert = SearchCertificate(
        alphabet_size=4,
        constraint=geq(1, 7, 5),
        outcome=Outcome.EXHAUSTED,
        max_depth=40,
        nodes_visited=1,
        witness=None,
        elapsed=0.0,
    )
    res = verify_certificate(cert)
    assert res.ok and not res.independently_verified


def _stirling2(n, k):
    """Stirling number of the second kind, by its recurrence."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_canonical_words_are_the_canonical_product_tuples():
    # canonical: letters first appear in the order 0, 1, 2, ...
    for a in range(1, 5):
        for n in range(8):
            expected = [
                t for t in itertools.product(range(a), repeat=n)
                if list(dict.fromkeys(t)) == list(range(len(set(t))))
            ]
            got = list(_canonical_words(a, n))
            assert got == expected, (a, n)
            assert len(got) == sum(_stirling2(n, k) for k in range(a + 1)), (a, n)
    # every length the re-proof walks: strictly ascending canonical words,
    # as many as there are, so exactly the canonical words in order
    for a in range(1, _REVERIFY_MAX_ALPHABET + 1):
        for n in range(_REVERIFY_MAX_DEPTH + 1):
            got = list(_canonical_words(a, n))
            assert all(u < v for u, v in zip(got, got[1:])), (a, n)
            assert all(list(dict.fromkeys(w)) == list(range(len(set(w)))) for w in got), (a, n)
            assert len(got) == sum(_stirling2(n, k) for k in range(a + 1)), (a, n)


def test_canonical_words_are_lazy():
    # there are about 3**199 / 2 canonical words of length 200; a walk that
    # built whole levels would never return
    assert next(_canonical_words(3, 200)) == (0,) * 200


# The reference re-enumerates at most this many words of one length.
_CHEAP_WORDS = 3**8


def test_verify_matches_full_enumeration():
    """The canonical enumeration gives the verdict of the former full one,
    detail text included: on every bracket certificate of {2, 3} x {1, 2, 3},
    on each EXHAUSTED one with max_depth one or two too low (a
    counterexample) and one or two too high (no word of the claimed depth),
    and at max_depth 0.  Certificates whose enumeration would pass
    _CHEAP_WORDS words are left out; criterion 8 re-proves the deep ones."""
    certs = []
    for a in (2, 3):
        for l in (1, 2, 3):
            certs += bracket_threshold(a, l).certificates
    certs += [
        dataclasses.replace(cert, max_depth=cert.max_depth + step)
        for cert in certs
        if cert.outcome is Outcome.EXHAUSTED
        for step in (-2, -1, 1, 2)
    ]
    certs += [
        SearchCertificate(a, geq(1, 2), Outcome.EXHAUSTED, 0, 1, None, 0.0)
        for a in (1, 2, 3)
    ]
    cheap = [
        cert for cert in certs
        if cert.max_depth is None
        or cert.max_depth > _REVERIFY_MAX_DEPTH
        or cert.alphabet_size ** (cert.max_depth + 1) <= _CHEAP_WORDS
    ]
    seen = set()
    for cert in cheap:
        res = verify_certificate(cert)
        assert res == ref_verify_certificate(cert), cert  # ok, independently_verified, detail
        seen.add(res.detail.split(" ")[0])
    assert seen == {"re-enumerated", "counterexample", "no", "witness", "not"}
    assert len(cheap) > len(certs) // 2


def test_verify_verdicts_on_the_bracket_grid(monkeypatch):
    """Every verdict on the 425 certificates of {2..5} x {1..5}, frozen: each
    EXHAUSTED certificate with max_depth moved by -2..+2, and each REACHED
    one as it is.  The digest is of the repr((ok, independently_verified,
    detail)) lines; the count of each detail kind says which verdicts moved,
    and the count of scans says whether the walk did."""
    scans = 0
    scan = search._naive_wins

    def counting_scan(*args):
        nonlocal scans
        scans += 1
        return scan(*args)

    monkeypatch.setattr(search, "_naive_wins", counting_scan)
    lines = []
    for a in range(2, 6):
        for l in range(1, 6):
            for cert in bracket_threshold(a, l).certificates:
                variants = [cert]
                if cert.outcome is Outcome.EXHAUSTED:
                    variants = [
                        dataclasses.replace(cert, max_depth=cert.max_depth + step)
                        for step in range(-2, 3)
                    ]
                for variant in variants:
                    res = verify_certificate(variant)
                    lines.append(repr((res.ok, res.independently_verified, res.detail)))
    kinds = Counter(line.split("'")[1].split(" ")[0] for line in lines)
    assert kinds == {
        "re-enumerated": 45,
        "counterexample": 97,
        "no": 86,  # no satisfying word of the claimed depth
        "not": 177,  # not independently re-verified
        "witness": 20,
    }
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "517de60114f3c7e4562acec389e23eb30448ad174be637474ecbf37fdf5e7af2"
    assert scans == 686_500


def test_verify_budget_certificate():
    cert = extend_search(2, strict(1, 2), 200, node_budget=5)
    res = verify_certificate(cert)
    assert res.ok and not res.independently_verified


def test_certificate_json_roundtrip():
    for cert in [
        extend_search(2, geq(1, 2), 10),
        extend_search(2, strict(1, 2), 40),
        extend_search(2, strict(1, 2), 200, node_budget=10),
    ]:
        doc = cert.to_jsonable()
        back = SearchCertificate.from_jsonable(doc)
        assert back.outcome == cert.outcome
        assert back.max_depth == cert.max_depth
        assert back.witness == cert.witness
        assert back.constraint == cert.constraint
        assert back.nodes_visited == cert.nodes_visited
        with pytest.raises(ValueError, match="negative nodes_visited -5"):
            SearchCertificate.from_jsonable({**doc, "nodes_visited": -5})


def test_certificate_refuses_an_unreduced_tree_and_a_bad_elapsed():
    """A symmetry_reduced other than true, or none, and an elapsed time that
    is negative, not finite or neither an int nor a float are refused when
    a certificate is built or read, and by both v1 schemas."""
    bracket = bracket_threshold(2, 1, max_denominator=2, target_length=20).to_jsonable()
    doc = bracket["certificates"][0]
    cert = SearchCertificate.from_jsonable(doc)
    for elapsed in (-0.001, -4, math.nan, math.inf, True, "1", None):
        with pytest.raises(ValueError, match="elapsed"):
            dataclasses.replace(cert, elapsed=elapsed)
    cert_schema, bracket_schema = load_schema("search_certificate"), load_schema("bracket")
    jsonschema.validate(doc, cert_schema)
    jsonschema.validate(bracket, bracket_schema)
    edits = [
        ({**doc, "symmetry_reduced": False}, "symmetry_reduced is False"),
        ({**doc, "symmetry_reduced": "no"}, "symmetry_reduced is 'no'"),
        ({k: v for k, v in doc.items() if k != "symmetry_reduced"}, "malformed certificate"),
        ({**doc, "elapsed_ms": -4}, "elapsed -0.004 "),
        ({**doc, "elapsed_ms": True}, "elapsed True "),
    ]
    for bad, message in edits:
        in_bracket = {**bracket, "certificates": [bad] + bracket["certificates"][1:]}
        for reader, document, schema in [
            (SearchCertificate.from_jsonable, bad, cert_schema),
            (Bracket.from_jsonable, in_bracket, bracket_schema),
        ]:
            with pytest.raises(ValueError, match=message):
                reader(document)
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(document, schema)


# --- bracket ---------------------------------------------------------------------


def test_bracket_binary_needs_strict_fallback():
    # squares are unavoidable over two letters: every GEQ candidate dies,
    # the top of the grid is certified as r_lo, and only a STRICT run
    # evidences the upper side
    bracket = bracket_threshold(2, 1, max_denominator=1, target_length=50)
    assert bracket.r_lo == Fraction(2)
    assert bracket.r_hi == Fraction(2)
    assert bracket.r_hi_strict_fallback
    assert bracket.c_hat == Fraction(2)


def test_bracket_ternary_dejean_neighbourhood():
    bracket = bracket_threshold(3, 1, max_denominator=4, target_length=100)
    assert bracket.r_lo == Fraction(7, 4)
    assert bracket.r_hi == Fraction(2)
    assert not bracket.r_hi_strict_fallback
    assert bracket.c_hat == Fraction(3)


def test_bracket_soundness_and_backing():
    for a, l, limit in [(2, 1, 4), (3, 1, 5), (2, 2, 3)]:
        bracket = bracket_threshold(a, l, max_denominator=limit, target_length=80)
        assert bracket.r_lo is not None and bracket.r_hi is not None
        assert bracket.r_lo <= bracket.r_hi
        exhausted = [
            c for c in bracket.certificates if c.outcome is Outcome.EXHAUSTED
        ]
        reached = [c for c in bracket.certificates if c.outcome is Outcome.REACHED]
        assert max(c.constraint.threshold for c in exhausted) == bracket.r_lo
        assert min(c.constraint.threshold for c in reached) == bracket.r_hi
        for cert in bracket.certificates:
            assert verify_certificate(cert).ok


def test_bracket_json_roundtrip():
    bracket = bracket_threshold(3, 1, max_denominator=3, target_length=60)
    back = Bracket.from_jsonable(bracket.to_jsonable())
    assert back.a == bracket.a and back.l == bracket.l
    assert back.r_lo == bracket.r_lo and back.r_hi == bracket.r_hi
    assert len(back.certificates) == len(bracket.certificates)
    assert back.c_hat == bracket.c_hat


def test_bracket_json_reencodes_byte_identically():
    # cells with a strict fallback, with a REACHED rung at once, and with
    # BUDGET_EXCEEDED rungs and no upper end; elapsed_ms need not give back
    # the same float of seconds, so the read-back bracket is compared with
    # elapsed zeroed
    def untimed(b):
        return Bracket(b.a, b.l, [dataclasses.replace(c, elapsed=0.0) for c in b.certificates])

    for a, l, budget in [(2, 1, None), (2, 3, None), (3, 1, None), (4, 2, None), (3, 1, 5), (2, 2, 50)]:
        bracket = bracket_threshold(a, l, max_denominator=4, target_length=60, node_budget=budget)
        text = json.dumps(bracket.to_jsonable(), sort_keys=True)
        back = Bracket.from_jsonable(json.loads(text))
        assert untimed(back) == untimed(bracket), (a, l, budget)
        assert json.dumps(back.to_jsonable(), sort_keys=True) == text, (a, l, budget)


def test_bracket_reader_rejects_ends_that_disagree_with_the_certificates():
    doc = bracket_threshold(3, 1).to_jsonable()
    assert Bracket.from_jsonable(doc).summary_line() == "a=3 l=1 r_lo=7/4 r_hi=9/5 c_hat=2.4"
    # the same end in an unreduced encoding still agrees
    assert Bracket.from_jsonable({**doc, "r_lo": {"num": 14, "den": 8}}).r_lo == Fraction(7, 4)
    swapped = [bracket_threshold(3, 2).to_jsonable()["certificates"][0]] + doc["certificates"][1:]
    disagree, other_cell = "disagree with the certificates", "a certificate of another"

    def edit(i, **change):
        """The document with certificate i's keys changed; None deletes a key."""
        certs = list(doc["certificates"])
        certs[i] = {k: v for k, v in {**certs[i], **change}.items() if v is not None}
        return {**doc, "certificates": certs}

    edited = [
        ({**doc, "r_lo": {"num": 2, "den": 1}}, disagree),
        ({**doc, "r_hi": {"num": 2, "den": 1}}, disagree),
        ({**doc, "r_hi_strict_fallback": True}, disagree),
        ({**doc, "c_hat": 3.0}, disagree),
        ({**doc, "certificates": swapped}, other_cell),
        # r_lo and the strict flag edited and a (3, 2) certificate swapped
        # in: every certificate still verifies, but the file is no bracket
        ({**doc, "r_lo": {"num": 2, "den": 1}, "r_hi_strict_fallback": True, "certificates": swapped}, other_cell),
        # a document of the wrong shape is refused with ValueError too
        ({**doc, "r_lo": "7/4"}, "malformed bracket"),
        ({**doc, "r_lo": {"num": 7}}, "malformed bracket"),
        ({k: v for k, v in doc.items() if k != "c_hat"}, "malformed bracket"),
        ({**doc, "certificates": None}, "malformed bracket"),
        (edit(0, outcome=None), "malformed certificate"),
        (edit(0, max_depth="7"), "malformed certificate"),
        (edit(0, max_depth=3.5), "malformed certificate"),
        (edit(0, nodes_visited=-5), "negative nodes_visited -5"),
        (edit(0, max_depth=-3), "negative max_depth -3"),
        (edit(-1, witness=None), "REACHED without witness"),
        (edit(-1, witness=5), "malformed certificate"),
    ]
    for bad, message in edited:
        with pytest.raises(ValueError, match=message):
            Bracket.from_jsonable(json.loads(json.dumps(bad)))


def test_bracket_refuses_a_bad_cell_and_no_certificates():
    """a and l are stored as integers and range-checked, and a bracket holds
    at least one certificate, when it is built or read, as the v1 schema
    says; a document of no bracket does not read back as given."""
    certs = bracket_threshold(2, 1, max_denominator=2, target_length=20).certificates
    empty = {"r_lo": None, "r_hi": None, "r_hi_strict_fallback": False, "c_hat": None, "certificates": []}
    schema = load_schema("bracket")
    for doc, message in [
        ({"a": 2.5, "l": True, **empty}, "malformed bracket"),
        ({"a": 0, "l": -3, **empty}, "alphabet size 0 below 2"),
        ({"a": 2, "l": -3, **empty}, "min period -3 below 1"),
        ({"a": 2, "l": 1, **empty}, "at least one certificate"),
    ]:
        with pytest.raises(ValueError, match=message):
            Bracket.from_jsonable(doc)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
    with pytest.raises(TypeError):
        Bracket(2.5, 1, certs)
    with pytest.raises(TypeError):
        Bracket(2, 1.0, certs)
    bracket = Bracket(2, True, certs)
    assert type(bracket.l) is int and bracket.to_jsonable()["l"] == 1


def test_bracket_summary_line():
    bracket = bracket_threshold(3, 1, max_denominator=4, target_length=60)
    line = bracket.summary_line()
    assert line.startswith("a=3 l=1 r_lo=7/4 r_hi=2/1 c_hat=3")


def _bracket_fields(bracket):
    certs = [
        (c.constraint, c.outcome, c.max_depth, c.nodes_visited, c.witness)
        for c in bracket.certificates
    ]
    return bracket.r_lo, bracket.r_hi, bracket.r_hi_strict_fallback, certs


def test_bracket_ladder_matches_two_phase_sweep():
    # the one-ladder walk against the former GEQ sweep with its STRICT
    # fallback: every cell of the paper's table at the defaults, and small
    # budgets, where BUDGET_EXCEEDED rungs sit between the two ends
    sweeps = [((a, l), {}) for a in range(2, 6) for l in range(1, 6)]
    sweeps += [
        ((a, l), {"max_denominator": den, "target_length": target, "node_budget": budget})
        for a, l in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
        for den in (2, 3, 6)
        for target in (20, 60)
        for budget in (1, 2, 5, 50, 500)
    ]
    outcomes = set()
    for args, kwargs in sweeps:
        bracket = bracket_threshold(*args, **kwargs)
        assert _bracket_fields(bracket) == _bracket_fields(ref_bracket_threshold(*args, **kwargs)), (args, kwargs)
        certs = bracket.certificates
        outcomes.update(c.outcome for c in certs)
        exhausted = [c.constraint.threshold for c in certs if c.outcome is Outcome.EXHAUSTED]
        assert bracket.r_lo == max(exhausted, default=None)
        reached = [c for c in certs if c.outcome is Outcome.REACHED]
        assert reached in ([], certs[-1:])
        assert bracket.r_hi == (reached[0].constraint.threshold if reached else None)
        assert bracket.r_hi_strict_fallback == (bool(reached) and reached[0].constraint.mode is Mode.STRICT)
    assert outcomes == set(Outcome)
