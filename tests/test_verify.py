"""The verify suites: their report lines, pinned, and how failures print."""

import hashlib
from pathlib import Path

import pytest

from atlq import projectors, verify
from atlq.diagram import gen_u
from atlq.rep import extremal_matrix, phi
from atlq.verify import SUITES, run_suite

GOLDEN = Path(__file__).parent / "data" / "verify_all.txt"

# sha256 of "\n".join(lines) for every suite at limits 0, 1 and 2
DIGESTS = {
    ("presentation", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("presentation", 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("presentation", 2): "91d9e754c8b0b8fe43b1721dee31141ffc81fbfb00dc8b9c58cfcf657795b2c6",
    ("reidemeister", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("reidemeister", 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("reidemeister", 2): "ea94de7ee6151886fa26dbd83ec652d2cf42e9bd7159801fd6a4c402786fd370",
    ("welldef", 0): "4ac34224517d1a3533c925599b932cefe54d5ece54d610918406e207ee013bcc",
    ("welldef", 1): "4196049b85adc19a14ca25a09cbd939e7bdd007c6ff1c4e943858551a412b955",
    ("welldef", 2): "f33e2e49f00c3ccdb8f43023ceb895812a0edfa1e1b03232b034bf341a3f3907",
    ("faithfulness", 0): "38726ee6ac5f178f098abe31a181f0a00f41c29d0828354472521f0d73b5199f",
    ("faithfulness", 1): "f4fac38f56aff9715a5f88fc67993c4b266e7004e115e5b10cadf89bef016790",
    ("faithfulness", 2): "b066c6e551ed352c8e0430573bb660b2a424e2ca4cc6fa93e63e60f2ff8c497c",
    ("technical", 0): "35c60471fa10874088e49c11c326eb6fc214efd816d18bcfccfb3e8aada1c4f5",
    ("technical", 1): "2bb81a7926c3350d55d1292b0ffea9aa56b9faa1c7f1fea55be9699604065b3a",
    ("technical", 2): "330b21ea29993a836359f38124f591ecf52a376164cdb1cc043a2268b58701f7",
    ("ptr", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("ptr", 1): "aa23a63d2eac5006638e06ab64f6f636097a76b85098a39b0e4d08968463b33a",
    ("ptr", 2): "217fd45d52546237a5892ecbb0733100a38faf8218082027385893d488c9c7fe",
    ("product", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("product", 1): "39c6b4c6f07529d6ff7f02cefadcea631c14012d1c5504e6283e94bf586eacb3",
    ("product", 2): "62d04cf75e4692f929d9561973011f001a0231dfaf9f7e1deb079de134469d6a",
    ("k0", 0): "eb579b02bcff244c034b4b8082b0bd6dd6d3d5dbf47ce3c8074d5181815d75a9",
    ("k0", 1): "eb579b02bcff244c034b4b8082b0bd6dd6d3d5dbf47ce3c8074d5181815d75a9",
    ("k0", 2): "0147169c590636100bd1aca5026151d46ab519ceb8af9b2211dfe2654f10e872",
    ("chebyshev", 0): "d58ec0acd8a90e68601c9ed03f9b16c697f5b1a4f72953ba0f15c1a6571f7099",
    ("chebyshev", 1): "fdd4946be9d73a7242ed738a9467c91dba7031af3926ed2409acd279e3b6e962",
    ("chebyshev", 2): "9bed8592c10d2706d06044370f87262c305126e9fe126a4066016073ab36b870",
}


def test_verify_all_matches_golden():
    ok, lines = run_suite("all")
    assert ok
    assert lines == GOLDEN.read_text().splitlines()


def test_every_suite_is_pinned():
    assert {name for name, _ in DIGESTS} == set(SUITES)


@pytest.mark.parametrize("name, limit", sorted(DIGESTS))
def test_suite_lines_are_frozen(name, limit):
    ok, lines = run_suite(name, limit)
    assert ok
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGESTS[name, limit]
    checks = SUITES[name](limit)
    assert isinstance(checks, list) and len(checks) == len(lines)


def _boom(*args):
    raise RuntimeError("boom")


_JW_PTR = "[ptr] m=2: partial trace of JW_2 is -(m+1)/m JW_1"


def test_raising_check_prints_its_exception(monkeypatch):
    monkeypatch.setattr(verify, "jw_partial_trace_check", _boom)
    ok, lines = run_suite("ptr", 2)
    assert not ok
    assert lines[-1] == f"FAIL  {_JW_PTR} :: RuntimeError: boom"
    assert all(l.startswith("PASS") for l in lines[:-1])


def test_false_check_prints_identity_does_not_hold(monkeypatch):
    monkeypatch.setattr(verify, "jw_partial_trace_check", lambda m: False)
    ok, lines = run_suite("ptr", 2)
    assert not ok
    assert lines[-1] == f"FAIL  {_JW_PTR} :: identity does not hold"


def test_raising_properties_give_one_fail_line(monkeypatch):
    monkeypatch.setattr(verify, "verify_properties", _boom)
    ok, lines = run_suite("technical", 2)
    assert not ok
    fails = [l for l in lines if l.startswith("FAIL")]
    assert fails == ["FAIL  [technical] m=2: structural properties :: RuntimeError: boom"]
    assert len(lines) == 5  # the four oracle lines still run


def test_raising_basis_gives_a_fail_line(monkeypatch):
    monkeypatch.setattr(verify, "basis_columns", _boom)
    ok, lines = run_suite("faithfulness", 1)
    assert not ok
    assert lines[0] == ("FAIL  [faithfulness] phi keeps the C(2,1) basis diagrams "
                        "independent :: RuntimeError: boom")
    assert all(l.startswith("PASS") for l in lines[1:])


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suite("bogus")


def _broken_t3(monkeypatch):
    # T_3 replaced by phi(U_0), which breaks all five properties
    real = projectors.phi_extremal
    monkeypatch.setattr(projectors, "phi_extremal",
                        lambda k: phi(gen_u(3, 0)) if k == 3 else real(k))


def test_verify_properties_reports_every_kind(monkeypatch):
    _broken_t3(monkeypatch)
    assert projectors.verify_properties(3) == [
        "idempotency",
        "crossing absorption at 0", "cap-cup annihilation at 0",
        "crossing absorption at 1", "cap-cup annihilation at 1",
        "crossing absorption at 2", "cap-cup annihilation at 2",
        "absorption of T_2",
        "rotation invariance",
    ]
    assert projectors.verify_properties(2) == []


def test_property_failures_print_their_details(monkeypatch):
    _broken_t3(monkeypatch)
    ok, lines = run_suite("technical", 3)
    assert not ok
    assert lines[-5:] == [
        "FAIL  [technical] m=3: T^2 = T :: idempotency",
        "FAIL  [technical] m=3: T s_i = s_i T = T for every i :: crossing absorption at 0; "
        "crossing absorption at 1; crossing absorption at 2",
        "FAIL  [technical] m=3: T U_i = U_i T = 0 for every i :: cap-cup annihilation at 0; "
        "cap-cup annihilation at 1; cap-cup annihilation at 2",
        "FAIL  [technical] m=3: T absorbs every embedded smaller T :: absorption of T_2",
        "FAIL  [technical] m=3: D^-1 T D = T :: rotation invariance",
    ]
    assert all(l.startswith("PASS") for l in lines[:-5])


def test_broken_t3_leaves_no_trace_in_the_memo(monkeypatch):
    # the patched T_3 must not be multiplied into a memoized larger T_m
    projectors.phi_extremal.cache_clear()  # cold, as when this file runs alone
    with monkeypatch.context() as patch:
        _broken_t3(patch)
        run_suite("technical", 3)
    for m in range(1, 9):
        assert projectors.phi_extremal(m) == extremal_matrix(m)


def test_oracle_lines_pin_the_diagrams(monkeypatch):
    # a wrong T_4 diagram fails its oracle line, though phi_extremal(4)
    # never expands it
    real = projectors.extremal
    monkeypatch.setattr(verify, "extremal", lambda k: real(k).scale(2) if k == 4 else real(k))
    ok, lines = run_suite("technical", 4)
    assert not ok
    fails = [l for l in lines if l.startswith("FAIL")]
    assert fails == [
        "FAIL  [technical] m=4: phi(T_4) matches the two-entry diagonal oracle "
        ":: identity does not hold"
    ]
