"""Pattern canonicalization, dataset parsing, and empirical statistics.

Containment and empirical expectations are read through the package's one
count, ``model.incidence_matrix``, and checked against the set oracles.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbmlearn import (
    EmpiricalDistribution,
    FimiFormatError,
    SampleSpace,
    TransactionDataset,
    build_sample_space,
    canonicalize,
    format_fimi,
    incidence_matrix,
    parse_fimi,
)
from tbmlearn import patterns
from tbmlearn.fitting import empirical_targets
from tbmlearn.model import supports
from tbmlearn.patterns import _read_fimi, _scan_fimi

from conftest import traced_peak
from oracles import brute_eta, enumerate_patterns


def row_contains(s, x) -> bool:
    """Whether outcome ``x`` is in the incidence row of pattern ``s``."""
    space = SampleSpace.from_patterns([x])
    return space.position(x) in incidence_matrix(space, [s]).indices


def empirical_eta(dataset, x) -> float:
    """The fit's target for ``x``: its incidence row over the data's space."""
    space = build_sample_space([], dataset)
    return float(empirical_targets(dataset, space, incidence_matrix(space, [x]))[0])


class TestContainment:
    def test_empty_pattern_contained_everywhere(self):
        assert row_contains((), (1, 2))
        assert row_contains((), ())

    def test_definition(self):
        assert row_contains((1,), (1, 2))
        assert not row_contains((3,), (1, 2))

    def test_superset_is_not_subset(self):
        assert not row_contains((1, 2), (1,))

    @given(
        st.sets(st.integers(0, 12)),
        st.sets(st.integers(0, 12)),
    )
    def test_matches_set_semantics(self, a, b):
        s, x = canonicalize(a), canonicalize(b)
        assert row_contains(s, x) == (a <= b)


class TestCanonicalize:
    def test_sorts_and_dedupes(self):
        assert canonicalize([2, 1, 2]) == (1, 2)
        assert canonicalize([]) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            canonicalize([1, -2])


class TestParseFimi:
    def test_basic(self):
        d = parse_fimi("1 2\n1\n1 2\n")
        assert d.entries == {(1, 2): 2, (1,): 1}
        assert d.n_samples == 3
        assert d.n_variables == 3

    def test_canonicalizes_line_order(self):
        d = parse_fimi("2 1\n")
        assert d.entries == {(1, 2): 1}

    def test_malformed_token_reports_line(self):
        with pytest.raises(FimiFormatError, match="line 1"):
            parse_fimi("1 x\n")
        with pytest.raises(FimiFormatError, match="line 3"):
            parse_fimi("1\n2\n1 ?\n")

    def test_negative_identifier_rejected(self):
        with pytest.raises(FimiFormatError):
            parse_fimi("1 -2\n")

    def test_empty_file_rejected(self):
        with pytest.raises(FimiFormatError):
            parse_fimi("")
        with pytest.raises(FimiFormatError):
            parse_fimi("\n\n")

    def test_crlf(self):
        d = parse_fimi(b"1 2\r\n2\r\n")
        assert d.entries == {(1, 2): 1, (2,): 1}

    def test_empty_lines_skipped_by_default(self):
        d = parse_fimi("1\n\n2\n")
        assert d.n_samples == 2

    def test_empty_lines_as_bottom(self):
        d = parse_fimi("1\n\n2\n", empty_as_bottom=True)
        assert d.n_samples == 3
        assert d.entries[()] == 1

    def test_roundtrip(self):
        text = "3 1\n2\n1 3\n2\n0\n"
        d = parse_fimi(text)
        again = parse_fimi(format_fimi(d))
        assert again.entries == d.entries
        assert again.n_variables == d.n_variables

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 8), min_size=1, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_random(self, transactions):
        d = TransactionDataset.from_transactions(transactions)
        again = parse_fimi(format_fimi(d))
        assert again.entries == d.entries
        assert again.n_variables == d.n_variables


def read_or_error(reader, text, empty_as_bottom):
    try:
        d = reader(text, empty_as_bottom=empty_as_bottom)
    except FimiFormatError as exc:
        return "error", str(exc)
    return list(d.entries.items()), d.n_variables, d.n_samples


SCANNED_TOKENS = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 40).map(lambda i: f"00{i}"),
    st.integers(10**16, 10**18 - 1).map(str),
    # 19 digits below 2^63, and zero-padded past 19 digits.
    st.integers(10**18, 2**63 - 2).map(str),
    st.tuples(st.integers(0, 2**63 - 2), st.integers(20, 30)).map(lambda t: str(t[0]).zfill(t[1])),
)
OTHER_TOKENS = st.sampled_from(
    ["+5", "-3", "-0", "1_0", "x", "\u0663", "12345678901234567890", "7" * 25, "3\u00a04",
     "2\u20033", "5\x0c6", "1\r2", "9223372036854775807", "9223372036854775808",
     "18446744073709551617"]
)


def fimi_text(tokens):
    line = st.lists(tokens, max_size=5).flatmap(
        lambda toks: st.lists(st.sampled_from([" ", "\t", "  "]), min_size=len(toks),
                              max_size=len(toks)).map(
            lambda seps: "".join(s + t for s, t in zip(seps, toks))
        )
    )
    # Some lines end in blanks, so some blank lines are not empty.
    line = st.tuples(line, st.sampled_from(["", "", " ", "\t "])).map("".join)
    return st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])), max_size=8).flatmap(
        lambda lines: st.booleans().map(
            lambda last: "".join(l + e for l, e in lines)
            + ("" if not lines or last else lines[-1][0])
        )
    )


def _refuse(text, empty_as_bottom):
    raise AssertionError("the text went to the line reader")


def synth_like_text() -> str:
    """100k lines drawn from 300 distinct item sets over 16 items, as the
    bench's ``synth`` workload reads."""
    rng = np.random.default_rng(0)
    masks = rng.choice(np.arange(1, 1 << 16), size=300, replace=False).tolist()
    lines = [" ".join(str(i) for i in range(16) if m >> i & 1) for m in masks]
    return "\n".join(lines[d] for d in rng.integers(0, 300, size=100_000)) + "\n"


class TestByteScan:
    """numpy's reader in ``parse_fimi`` against its line reader."""

    @settings(max_examples=300, deadline=None)
    @given(fimi_text(SCANNED_TOKENS), st.booleans(), st.booleans())
    def test_scan_equals_line_reader(self, text, empty_as_bottom, as_bytes):
        # Tabs, CRLF, leading zeros, repeated items, empty lines, 19 digits.
        data = text.encode() if as_bytes else text
        scanned = _scan_fimi(text.encode(), empty_as_bottom)
        line_read = read_or_error(_read_fimi, data, empty_as_bottom)
        if scanned is None:
            assert line_read[0] == "error"
            assert line_read[1] == "no transactions found"
        else:
            got = list(scanned.entries.items()), scanned.n_variables, scanned.n_samples
            assert got == line_read
        assert read_or_error(parse_fimi, data, empty_as_bottom) == line_read

    @settings(max_examples=300, deadline=None)
    @given(fimi_text(SCANNED_TOKENS), OTHER_TOKENS, st.data(), st.booleans(), st.booleans())
    def test_other_text_reads_as_the_line_reader_does(
        self, text, other, data, empty_as_bottom, as_bytes
    ):
        # One sign, underscore, letter, non-ASCII digit or space, form feed,
        # lone carriage return or identifier of 2^63 - 1 or more in scannable
        # text: the same entries in the same order, or the same error at the
        # same line.
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + " " + other + " " + text[at:]
        data = text.encode() if as_bytes else text
        assert read_or_error(parse_fimi, data, empty_as_bottom) == read_or_error(
            _read_fimi, data, empty_as_bottom
        )

    def test_long_identifiers_stay_exact(self):
        d = parse_fimi("0 100000000000000000000000\n100000000000000000000000\n")
        assert d.entries == {(0, 10**23): 1, (10**23,): 1}
        assert d.n_variables == 10**23 + 1
        assert d.csr[1].dtype == object

    @pytest.mark.parametrize("text", [" ", "\t ", "1 2\n ", "1 2\r\n\t "])
    def test_last_line_of_blanks(self, monkeypatch, text):
        # numpy reads a text of blanks alone as one 0; with 1-byte blocks the
        # last line is a block of its own.
        want = [read_or_error(_read_fimi, text, e) for e in (False, True)]
        monkeypatch.setattr(patterns, "_SCAN_BLOCK", 1)
        assert [read_or_error(parse_fimi, text, e) for e in (False, True)] == want

    @pytest.mark.parametrize("empty_as_bottom", [False, True])
    def test_everyday_files_stay_on_numpys_path(self, monkeypatch, empty_as_bottom):
        # Tabs, CRLF, blank lines, leading zeros, a 19-digit identifier, no
        # final line feed, and lines that straddle 16-byte blocks.  A numpy
        # that deprecates text-mode ``fromstring`` fails here rather than
        # sending every file to the line reader.
        body = b"3\t1 2\r\n\r\n0007 1  3\n9223372036854775806 2\r\n \t\n01\t\t1\n"
        text = body * 20 + b"12 5"
        want = _read_fimi(text, empty_as_bottom)
        monkeypatch.setattr(patterns, "_SCAN_BLOCK", 16)
        monkeypatch.setattr(patterns, "_read_fimi", _refuse)
        for data in (text, text.decode()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = parse_fimi(data, empty_as_bottom=empty_as_bottom)
            assert list(got.entries.items()) == list(want.entries.items())
            assert (got.n_variables, got.n_samples) == (want.n_variables, want.n_samples)

    def test_blocks_bound_the_memory(self):
        # Blocks of whole lines keep numpy's int64 tokens, the text with its
        # line marks and their copies to a few hundred KiB at a time: about
        # 12.4 MiB peak here, where reading the whole text at once takes
        # 16.4 MiB.
        text = synth_like_text()
        assert traced_peak(lambda: parse_fimi(text)) < 14 << 20


class TestTransactionDataset:
    def test_counts_totals(self, worked_dataset):
        assert worked_dataset.n_samples == 10
        assert worked_dataset.n_variables == 3

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            TransactionDataset(entries={(1,): 0}, n_variables=2)

    def test_multiplicity_past_int64(self):
        d = TransactionDataset(entries={(0,): 2**63, (1,): 1}, n_variables=2)
        assert d.n_samples == 2**63 + 1
        assert d.csr[2].tolist() == [2**63, 1]
        assert supports(d, [(0,), (1,)]).tolist() == [float(2**63), 1.0]
        with pytest.raises(ValueError, match="must be a positive integer"):
            TransactionDataset(entries={(0,): 2**63, (1,): 0}, n_variables=2)

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            TransactionDataset(entries={(5,): 1}, n_variables=3)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            TransactionDataset(entries={}, n_variables=1)

    def test_with_universe_keeps_data(self, worked_dataset):
        wide = worked_dataset.with_universe(1000)
        assert wide.entries == worked_dataset.entries
        assert wide.n_variables == 1000
        with pytest.raises(ValueError):
            worked_dataset.with_universe(1)


class TestEmpiricalEta:
    def test_worked_values(self, worked_dataset):
        assert empirical_eta(worked_dataset, (1,)) == pytest.approx(0.7, abs=0)
        assert empirical_eta(worked_dataset, (1, 2)) == pytest.approx(0.4, abs=0)

    def test_bottom_always_one(self, worked_dataset):
        assert empirical_eta(worked_dataset, ()) == 1.0

    def test_exact_integer_support(self, worked_dataset):
        assert supports(worked_dataset, [(1,), (2,)]).tolist() == [7, 5]

    def test_matches_powerset_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            universe = list(enumerate_patterns(n))
            weights = rng.dirichlet(np.ones(len(universe)))
            counts = rng.multinomial(200, weights)
            entries = {x: int(c) for x, c in zip(universe, counts) if c > 0}
            d = TransactionDataset(entries=entries, n_variables=n)
            probs = {x: c / 200 for x, c in entries.items()}
            for x in universe:
                assert empirical_eta(d, x) == pytest.approx(
                    brute_eta(probs, x), abs=1e-12
                )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 6), max_size=6), min_size=1, max_size=15
        ),
        st.sets(st.integers(0, 6), max_size=4),
        st.data(),
    )
    def test_monotone_under_containment(self, transactions, sup, data):
        d = TransactionDataset.from_transactions(transactions, n_variables=7)
        y = canonicalize(sup)
        x = canonicalize(data.draw(st.sets(st.sampled_from(sorted(sup)))) if sup else set())
        assert empirical_eta(d, x) >= empirical_eta(d, y)


class TestEmpiricalDistribution:
    def test_from_dataset(self, worked_dataset):
        p = EmpiricalDistribution.from_dataset(worked_dataset)
        assert p.probs[(1, 2)] == 0.4
        assert sum(p.probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert p.support == frozenset(worked_dataset.entries)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(probs={(1,): 0.5}, support=frozenset({(1,)}))
