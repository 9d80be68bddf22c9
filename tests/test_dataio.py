"""Tests for LIBSVM parsing, emission, splitting, and standardization."""

import bz2
import io
import itertools

import numpy as np
import pytest

from vrhmc import dataio
from vrhmc.dataio import (
    Dataset,
    LibsvmFormatError,
    _map_labels,
    parse_libsvm,
    standardize,
    train_test_split,
)

import oracles


def random_dataset(rng, n_rows, n_features, density=0.6):
    labels = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    features = np.zeros((n_rows, n_features))
    for row in features:
        cols = np.flatnonzero(rng.random(n_features) < density)
        row[cols] = rng.standard_normal(cols.size)
    return Dataset(labels=labels, features=features)


class TestParse:
    def test_basic_document(self):
        text = [
            "+1 1:0.5 3:-2.0",
            "-1 2:1.25",
        ]
        data = parse_libsvm(text)
        assert data.n_rows == 2
        assert data.n_features == 3
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])
        np.testing.assert_allclose(
            data.features, [[0.5, 0.0, -2.0], [0.0, 1.25, 0.0]]
        )

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("1 1:2.0\n0 2:3.0\n")
        data = parse_libsvm(path)
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_label_policy_zero_one(self):
        data = parse_libsvm(["0 1:1.0", "1 1:2.0"])
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_label_policy_one_two(self):
        data = parse_libsvm(["2 1:1.0", "1 1:2.0"])
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])

    def test_has_no_explicit_label_map(self):
        with pytest.raises(TypeError):
            parse_libsvm(["7 1:1.0", "9 1:2.0"], label_map={})

    def test_unknown_label_alphabet_is_rejected(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["4 1:1.0", "5 1:2.0"])
        assert "label" in str(err.value)

    def test_malformed_label_reports_line_number(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 1:1.0", "spam 1:2.0"])
        assert "line 2" in str(err.value)

    def test_malformed_feature_reports_line_and_token(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 1:1.0 oops"])
        message = str(err.value)
        assert "line 1" in message and "oops" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line_and_token(self, value):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 1:1.0", "", f"-1 1:2.0 3:{value}", "+1 2:nan"])
        message = str(err.value)
        assert "line 3, token 3" in message and f"3:{value}" in message

    def test_indices_must_be_one_based(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 0:1.0"])
        assert "1-based" in str(err.value)

    def test_indices_must_increase(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["+1 2:1.0 2:2.0"])
        assert "increas" in str(err.value)

    def test_empty_document_is_rejected(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm([])
        assert "no data rows" in str(err.value)

    def test_n_features_override(self):
        data = parse_libsvm(["+1 1:1.0"], n_features=5)
        assert data.n_features == 5
        with pytest.raises(ValueError):
            parse_libsvm(["+1 4:1.0"], n_features=3)

    def test_blank_lines_are_skipped(self):
        data = parse_libsvm(["+1 1:1.0", "", "-1 1:2.0", "   "])
        assert data.n_rows == 2


SOURCE_KINDS = ("path", "text handle", "lines", "lines with ends")


def as_source(kind, text, tmp_path):
    """The document text as one of the source kinds parse_libsvm takes."""
    if kind == "path":
        path = tmp_path / "document.libsvm"
        path.write_bytes(text.encode("ascii"))
        return path
    if kind == "text handle":
        return io.StringIO(text)
    if kind == "lines":
        return text.splitlines()
    return text.splitlines(keepends=True)


def outcome(parse, source, **kwargs):
    """The Dataset's exact bits, or the exception type and message."""
    try:
        data = parse(source, **kwargs)
    except Exception as err:  # the exception itself is the outcome compared
        return type(err), str(err)
    return tuple(
        (array.dtype.str, array.shape, array.tobytes())
        for array in (data.labels, data.features)
    )


def assert_matches_reference(text, tmp_path, **kwargs):
    """parse_libsvm agrees with the per-token reference on every source kind."""
    results = []
    for kind in SOURCE_KINDS:
        want = outcome(oracles.parse_libsvm, as_source(kind, text, tmp_path), **kwargs)
        got = outcome(parse_libsvm, as_source(kind, text, tmp_path), **kwargs)
        assert got == want, f"{kind} source of {text!r} ({kwargs})"
        results.append(got)
    return results[0]


# token mutations the fuzz draws from; none holds "_" or a byte outside
# printable ASCII, tabs, CRs and LFs
_VALUE_TEXTS = (
    "inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "nan(1)", "1e", "1e400",
    "1e-400", "-0", ".5", "5.", "+.5e-3", "1E+2", "--1", "1.2.3", "e5", ".", "x",
)
_INDEX_TEXTS = ("0", "-3", "3.0", "3e0", "+3", "007", "-0", "x", "1e3")
# no "nan" label: the reference lists the labels of an unknown convention in
# set order, which for a NaN varies from run to run
_LABEL_TEXTS = (
    "spam", "inf", "1e", "2", "0", ".5", "+1", "-1.0", "1:1", "nan(1)", "+",
)


def _split_feature(token):
    index, _, value = token.partition(":")
    return index, value


def _mutate(rng, lines):
    """Apply one random mutation in place to a list of token lists."""
    rows = [k for k, tokens in enumerate(lines) if tokens]
    op = int(rng.integers(11))
    if op == 10 and rows:
        lines[int(rng.choice(rows))] = []
        return
    if op >= 8 or not rows:
        blank = str(rng.choice(["", " ", "\t", " \t  "]))
        lines.insert(int(rng.integers(len(lines) + 1)), [blank] if blank else [])
        return
    tokens = lines[int(rng.choice(rows))]
    k = int(rng.integers(len(tokens)))
    features = range(1, len(tokens))
    if op == 0:
        del tokens[k]
    elif op == 1:
        tokens.insert(int(rng.integers(len(tokens) + 1)), tokens[k])
    elif op == 2:
        j = int(rng.integers(len(tokens)))
        tokens[j], tokens[k] = tokens[k], tokens[j]
    elif op == 7 or not features:
        tokens[0] = str(rng.choice(_LABEL_TEXTS + ("+" + tokens[0], "-" + tokens[0])))
    else:
        k = int(rng.choice(features))
        index, value = _split_feature(tokens[k])
        if op == 3:
            tokens[k] = str(rng.choice([
                f"{index}::{value}", f"{index}:{value}:{value}", f"{index}{value}",
                f":{value}", f"{index}:", ":", index,
            ]))
        elif op == 4:
            sign = str(rng.choice(["+", "-"]))
            tokens[k] = str(rng.choice([f"{sign}{index}:{value}", f"{index}:{sign}{value}"]))
        elif op == 5:
            tokens[k] = f"{index}:{rng.choice(_VALUE_TEXTS)}"
        elif op == 6:
            tokens[k] = f"{rng.choice(_INDEX_TEXTS)}:{value}"
        else:
            tokens[k] = f"{index}:{value}".replace(":", ":" + str(rng.choice(["", "0", "-"])), 1)


def _render(rng, lines):
    """Join token lists with random whitespace and line endings."""
    endings = ["\n"] * 3 + ["\r\n", "\r"]
    gaps = [" "] * 6 + ["\t", "  ", " \t"]
    out = []
    for tokens in lines:
        lead = str(rng.choice(["", "", "", " ", "\t"]))
        trail = str(rng.choice(["", "", "", " ", "\t "]))
        body = tokens[0] if tokens else ""
        for token in tokens[1:]:
            body += str(rng.choice(gaps)) + token
        out.append(lead + body + trail + str(rng.choice(endings)))
    text = "".join(out)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    return text


def fuzz_document(rng):
    """An emitted random dataset with random label convention and mutations."""
    dataset = random_dataset(
        rng,
        n_rows=int(rng.choice([1, 1, 2, 3, 4, 5, 6])),
        n_features=int(rng.integers(1, 7)),
        density=float(rng.uniform(0.2, 0.9)),
    )
    convention = {
        0: {"-1": "-1", "1": "1"},
        1: {"-1": "0", "1": "1"},
        2: {"-1": "1", "1": "2"},
    }[int(rng.integers(3))]
    lines = []
    for line in oracles.emit_libsvm(dataset).splitlines():
        tokens = line.split()
        tokens[0] = convention[tokens[0]]
        lines.append(tokens)
    for _ in range(int(rng.choice([0, 0, 1, 1, 2, 3]))):
        _mutate(rng, lines)
    n_features = [None, dataset.n_features, dataset.n_features + 2, 1][
        int(rng.choice(4, p=[0.7, 0.1, 0.1, 0.1]))
    ]
    return _render(rng, lines), n_features


class TestParseMatchesReference:
    def test_seeded_fuzz(self, tmp_path):
        rng = np.random.default_rng(20241019)
        kinds = {}
        for _ in range(400):
            text, n_features = fuzz_document(rng)
            assert "_" not in text
            result = assert_matches_reference(text, tmp_path, n_features=n_features)
            if isinstance(result[0], type):
                kind = result[1].split(": ")[-1].split(" ")[0]
            else:
                kind = "parsed"
            kinds[kind] = kinds.get(kind, 0) + 1
        # the fuzz must reach valid documents and every error kind
        for kind in ("parsed", "unreadable", "malformed", "index", "non-finite",
                     "no", "labels"):
            assert kinds.get(kind, 0) >= 3, sorted(kinds.items())

    @pytest.mark.parametrize(
        "text",
        [
            "1 1:1\r\n\r\n-1 x:1\r\n",
            "1 1:1\r\r-1 1:1 x\r",
            "1 1:1\n\r\n  \t\n-1 1:1 2:nan\n",
            "\t1\t1:1 \t2:2\t\r\n\n-1 2:1",
            "1 1:2\n-1 2:3",
            "\r\n\r\n\n",
        ],
    )
    def test_line_endings_and_blank_lines(self, text, tmp_path):
        assert_matches_reference(text, tmp_path)


    def test_every_short_token(self):
        # every token of up to three characters from the number alphabet,
        # as a label, an index, a value and a whole feature token
        alphabet = "0+-.eEinf:x("
        for size in (1, 2, 3):
            for chars in itertools.product(alphabet, repeat=size):
                token = "".join(chars)
                for line in (f"{token} 1:1", f"1 {token}", f"1 {token}:1", f"1 1:{token}"):
                    want = outcome(oracles.parse_libsvm, [line])
                    assert outcome(parse_libsvm, [line]) == want, line

    @pytest.mark.parametrize(
        "word",
        ["inf", "INF", "-inf", "+Inf", "infinity", "-InFiNiTy", "infinit", "infinityy",
         "infin", "nan", "-NaN", "+nan", "na", "nann", "nan()", "nan(abc)", "in"],
    )
    def test_number_words(self, word):
        for line in (f"{word} 1:1", f"1 1:{word}", f"1 {word}:1"):
            assert outcome(parse_libsvm, [line]) == outcome(oracles.parse_libsvm, [line])

    @pytest.mark.parametrize(
        "line, n_features",
        [
            ("1 9007199254740993:1", 5),
            ("1 9007199254740992:1 9007199254740993:1", 5),
            ("1 9007199254740993:1 9007199254740992:1", 5),
            ("1 3:1 9007199254740993:1\n-1 " + "9" * 30 + ":1", 5),
            ("1 2:1 9007199254740993:1\n-1 " + "9" * 5000 + ":1", 5),
            ("1 -9007199254740993:1", 5),
            ("1 9007199254740993:inf\n-1 0:1", 5),
        ],
        ids=["2**53+1", "increasing", "stalled", "30 digits", "5000 digits",
             "negative", "before a later error"],
    )
    def test_indices_beyond_float_precision(self, line, n_features, tmp_path):
        assert_matches_reference(line, tmp_path, n_features=n_features)

    def test_list_line_breaks_stay_inside_their_line(self):
        lines = ["1 1:1\r-1 2:1", "-1\n2:1"]
        assert outcome(parse_libsvm, lines) == outcome(oracles.parse_libsvm, lines)
        assert outcome(parse_libsvm, lines)[1] == (
            "line 1, token 3: malformed feature '-1'"
        )

    @pytest.mark.parametrize(
        "text, kwargs",
        [
            # 14 to 17 digits as a value, around 2**53 and with leading zeros
            ("1 1:12345678901234 2:123456789012345 3:1234567890123456 "
             "4:12345678901234567\n", {}),
            ("1 1:9007199254740991 2:9007199254740992 3:9007199254740993 "
             "4:-9007199254740993 5:+9007199254740995\n", {}),
            ("1 1:0000000000000001 2:-00000000000000000000042 3:+0000000000000123456789012345 "
             "4:000000000000000\n", {}),
            # ... as a label
            ("12345678901234 1:1\n123456789012345 1:2\n", {}),
            ("1234567890123456 1:1\n-12345678901234567 1:2\n", {}),
            ("9007199254740993 1:1\n-9007199254740991 1:1\n", {}),
            ("0000000000000001 1:1\n-000000000000000001 1:2\n", {}),
            # ... as an index
            ("1 12345678901234:1\n", {"n_features": 5}),
            ("1 123456789012345:1\n", {"n_features": 5}),
            ("1 1234567890123456:1\n", {"n_features": 5}),
            ("1 12345678901234567:1\n", {"n_features": 5}),
            ("1 9007199254740991:1\n", {"n_features": 5}),
            ("1 2:1 000000000000000003:1\n-1 +0000000000000000005:2\n", {}),
            ("1 3:1 0000000000000003:1\n", {}),
        ],
        ids=["values", "values 2**53", "values leading zeros", "labels 14-15",
             "labels 16-17", "labels 2**53", "labels leading zeros", "index 14",
             "index 15", "index 16", "index 17", "index 2**53-1",
             "indices leading zeros", "index leading zeros stalls"],
    )
    def test_integers_around_fifteen_digits(self, text, kwargs, tmp_path):
        assert_matches_reference(text, tmp_path, **kwargs)

    @pytest.mark.parametrize(
        "text, kwargs",
        [
            ("-0 1:1\n1 1:2\n", {}),
            ("+0 1:1\n-000 1:2\n1 1:3\n", {}),
            ("-0 1:1\n+0 1:2\n", {}),
            ("1 1:-0 2:+0 3:-000 4:0 5:+000\n-1 2:-0\n", {}),
            ("1 +3:-0\n-1 +3:1 4:+0\n", {}),
            ("1 -0:1\n", {}),
            ("1 1:1 -0:1\n", {}),
            ("1 +0:1\n", {}),
        ],
        ids=["label -0", "labels +0 -000", "labels mapped", "values",
             "index +3", "index -0", "index -0 late", "index +0"],
    )
    def test_signed_zeros_and_signs(self, text, kwargs, tmp_path):
        assert_matches_reference(text, tmp_path, **kwargs)

    @pytest.mark.parametrize(
        "text",
        [
            "1 1:1 2:0.5 3:1 4:1e3 5:-2 6:7 7:+.5 8:1 9:x 10:1\n",
            "-1 1:1 2:2 3:3 4:.25 5:5 6:6 7:7 8:8E-2 9:9 10:10 11:1:1 12:1\n",
            "1 1:inf 2:1\n-1 1:1 2:3 3:0.25 4:4 5:1x\n",
            "1 1:1 2:1\n-1 1:2.5 2:3 3:-4 4:+5 5:6.\n0.5 1:1 2:2 3:3 4:4 5:5 6:6 7:+\n",
            "1 1:1 2:2 3:3 4:4 5:5 6:- 7:1\n",
            "1 1:1 2:2 3:3 4:4 5:-+1\n",
            "1 1:1 2:2 3:3 4:4 5:1-\n",
            "1 1:1 2:2 3:3 4:4 5+:1\n",
            "1 1:1 2:2 3:3 4:4 +:1\n",
            "1 1:1 2:2 3:3 4:4 :5\n",
            "1 1:1 2:2 3:3 4:4 5:\n",
            "1 1:1 2:2 3:3 4:4 12\n",
            "1 1:1 2:2 3:3 4:4 5:2:3\n",
            "1 1:1 2:2 3:3 4:4 --5:1\n",
            "1 1:1\n+ 1:1\n",
            "1 1:1\n- 1:1 2:2\n",
            "1 1:1\n+-1 1:1\n",
            "1 1:1\n1- 1:1\n",
            "1 1:1\n12:1 1:1\n",
            "1 1:1 2:2 3:3\n-1 1:1 2:0.5 3:3 4:1e-5 5:5 6:nan\n",
            "1 1:1 2:2 3:3\n-1 1:1 2:0.5 3:3 4:1e-5 5:5 5:1\n",
            "1 1:1 2:2 3:3\n-1 1:1 2:0.5 3:3 4:1e-5 5:5 6:1 0:1\n",
        ],
    )
    def test_plain_and_other_tokens_on_one_line(self, text, tmp_path):
        assert_matches_reference(text, tmp_path)

    @pytest.mark.parametrize(
        "text",
        ["." * 128 + " 1:1\n", "1 1:" + "." * 128 + "\n", "1 1:" + "0" * 200 + "7\n",
         "-" + "0" * 127 + " 1:1\n", "1 " + "+" * 129 + ":1\n"],
    )
    def test_long_tokens(self, text, tmp_path):
        assert_matches_reference(text, tmp_path)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_pair_blocks_do_not_show(self, block, monkeypatch):
        rng = np.random.default_rng(77)
        documents = [fuzz_document(rng)[0] for _ in range(60)]
        want = [outcome(parse_libsvm, text.splitlines()) for text in documents]
        monkeypatch.setattr(dataio, "_BLOCK_TOKENS", block)
        got = [outcome(parse_libsvm, text.splitlines()) for text in documents]
        assert got == want

    @pytest.mark.parametrize("broken", [None, "1:1.5.", "3:1 2:1"])
    def test_large_one_hot_document(self, broken, tmp_path):
        # mushrooms-shaped: every row sets one feature of each group, mostly
        # to 1, and a few rows hold decimal and exponent values
        rng = np.random.default_rng(5150)
        # 6000 rows of 13 tokens span two blocks of pairs
        n_rows, n_features, n_groups = 6000, 60, 12
        edges = np.linspace(0, n_features, n_groups + 1).astype(int)
        columns = edges[:-1] + (rng.random((n_rows, n_groups)) * np.diff(edges)).astype(int)
        specials = ["0.5", "-2.25", "1e-3", "3E+2", "+.75", "-0", "12.", "7e0"]
        lines = []
        for k, row in enumerate(columns.tolist()):
            values = ["1"] * n_groups
            if k % 7 == 3:
                values[k % n_groups] = specials[k % len(specials)]
            lines.append(str(k % 2) + " " + " ".join(
                f"{c + 1}:{v}" for c, v in zip(row, values)
            ))
        if broken is not None:
            lines[5400] += " " + broken
        assert_matches_reference("\n".join(lines) + "\n", tmp_path)


def _value_tokens(rng, count):
    """count finite value tokens of many shapes, each with a random sign."""
    def digits(size):
        return "".join(map(str, rng.integers(0, 10, size)))

    def mantissa(size):
        text = digits(size)
        cut = int(rng.integers(0, size + 1))
        return text[:cut] + "." + text[cut:] if rng.random() < 0.8 else text

    shapes = [
        lambda: digits(int(rng.integers(1, 21))),
        lambda: repr(float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))),
        # subnormals and the smallest normals, and numbers that round to them
        lambda: repr(float(np.uint64(rng.integers(1, 2**53)).view(np.float64))),
        lambda: f"{digits(1)}.{digits(int(rng.integers(0, 20)))}e-{rng.integers(300, 330)}",
        lambda: f"{mantissa(17)}e{rng.integers(-340, 290)}",
        lambda: f"{mantissa(25)}E{rng.integers(-340, 280):+d}",
        lambda: str(rng.choice([".5", "5.", "1E+2", "0", "0.0", "000", "0e0", ".0e-7", "00.00"])),
        lambda: f"{mantissa(int(rng.integers(1, 6)))}e{rng.integers(-5, 5)}",
    ]
    tokens = []
    for shape in rng.integers(0, len(shapes), count):
        token = shapes[shape]()
        if token.startswith("-"):
            token = token[1:]
        tokens.append(str(rng.choice(["", "+", "-"])) + token)
    return tokens


def test_value_tokens_read_like_float():
    # each value token must give float()'s exact bits, signed zeros included
    width = 100
    tokens = _value_tokens(np.random.default_rng(8128), 500 * width)
    lines = [
        f"{k % 2} " + " ".join(f"{j + 1}:{t}" for j, t in enumerate(tokens[k * width : (k + 1) * width]))
        for k in range(len(tokens) // width)
    ]
    data = parse_libsvm(lines, n_features=width)
    want = np.array([float(token) for token in tokens])
    assert np.isfinite(want).all()
    np.testing.assert_array_equal(data.features.reshape(-1).view(np.uint64), want.view(np.uint64))


def _decimal_document(edits, n_rows=3000):
    """Rows of a 0/1 label and three values, every token five bytes wide.

    Every token is not plain, so each label and value goes through the
    bytes-to-float cast, and all of one kind fall in one length group.
    edits maps a row to the position of a token and the text replacing it.
    """
    rng = np.random.default_rng(4096)
    lines = []
    for k, row in enumerate(rng.uniform(1.0, 9.0, (n_rows, 3))):
        tokens = [f"{k % 2}.000"] + [f"{j + 1}:{v:.3f}" for j, v in enumerate(row)]
        if k in edits:
            position, token = edits[k]
            tokens[position] = token
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


class TestCheckedByTheCast:
    """A token that splits right but holds no number fails in the cast."""

    @pytest.mark.parametrize(
        "edits",
        [
            # one bad number among thousands of its width
            {2990: (2, "2:3.1.4")},
            {2990: (3, "3:1e+5x")},
            {2999: (3, "3:nan()")},
            {2995: (0, "1.0.0")},
            {2995: (0, "1e+5x")},
            # colons among tokens that are not plain
            {2990: (0, "1:000")},
            {2990: (2, "2:0.5:1")},
            {2990: (2, "2::0.5")},
            # a label with a colon and a feature token without one leave
            # as many colons as feature tokens
            {2990: (0, "1:000"), 2992: (2, "0.500")},
            {2980: (3, "3:1.2.3"), 2990: (2, "2:0.5:1")},
            {2980: (2, "2:0.5:1"), 2990: (3, "3:1.2.3")},
            {2980: (3, "9x:1.000"), 2990: (0, "1:000")},
        ],
        ids=["value", "value 1e", "value last row", "label", "label 1e",
             "label colon", "two colons", "double colon", "colons balance",
             "cast first", "colons first", "bad index first"],
    )
    def test_the_first_bad_line_wins(self, edits, tmp_path):
        result = assert_matches_reference(_decimal_document(edits), tmp_path)
        assert result[0] is LibsvmFormatError
        assert result[1].startswith(f"line {min(edits) + 1}")

    def test_a_refused_group_checks_one_line(self, monkeypatch):
        # the group's first refused number is found by halving, so only its
        # line goes through the line check
        lines = _decimal_document({2990: (2, "2:3.1.4")}).splitlines()
        calls, check_line = [], dataio._check_line

        def spy(line, lineno):
            calls.append(lineno)
            return check_line(line, lineno)

        monkeypatch.setattr(dataio, "_check_line", spy)
        assert outcome(parse_libsvm, lines) == outcome(oracles.parse_libsvm, lines)
        assert calls == [2991]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 1:1\n-1 1:1e\n", 2),
            ("1e 1:1\n", 1),
            ("1 1:1\n-1 1:1:1\n", 2),
            (_decimal_document({49: (1, "1:1.2.3")}, n_rows=50), 1),
        ],
        ids=["value", "label", "rejected before reading", "refused group"],
    )
    def test_a_line_check_that_finds_nothing_raises(self, text, line, monkeypatch):
        monkeypatch.setattr(dataio, "_check_line", lambda line, lineno: 1)
        with pytest.raises(RuntimeError, match=f"^line {line}: rejected, but no error found$"):
            parse_libsvm(text.splitlines())


class TestNarrowing:
    """Inputs the per-token reference accepts that parse_libsvm refuses."""

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1_0 1:1\n", "line 1: unreadable label '1_0'"),
            ("1 1_0:1\n", "line 1, token 2: malformed feature '1_0:1'"),
            ("1 1:1_0\n", "line 1, token 2: malformed feature '1:1_0'"),
            ("1 1:0.5_5\n", "line 1, token 2: malformed feature '1:0.5_5'"),
        ],
    )
    def test_underscore_separators_are_malformed(self, kind, text, message, tmp_path):
        # the reference reads the number
        assert outcome(oracles.parse_libsvm, [text.strip()]) != (LibsvmFormatError, message)
        assert _parse_message(text, tmp_path, kind) == (LibsvmFormatError, message)

    @pytest.mark.parametrize(
        "source",
        [
            ["1 1:1", "-1 2:١"],
            ["1 1:1", "-1 2:1"],
            ["1 1:1", "-1 2:1\x0b"],
            io.StringIO("1 1:1\n-1 2:1 é\n"),
            io.BytesIO(b"1 1:1\r\n-1 2:\xe9\r\n"),
            io.BytesIO(b"1 1:1\n-1 2:1\x00\n"),
            io.BytesIO(b"1 1:1\n-1 2:1\x7f\n"),
        ],
    )
    def test_bytes_outside_printable_ascii_name_their_line(self, source):
        with pytest.raises(LibsvmFormatError, match=r"^line 2: byte 0x[0-9a-f]{2} is not "):
            parse_libsvm(source)

    def test_byte_outside_ascii_on_the_path(self, tmp_path):
        path = tmp_path / "latin1.libsvm"
        path.write_bytes("1 1:1\n\n-1 2:1 3:café\n".encode("latin-1"))
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(path)
        assert str(err.value) == (
            "line 3: byte 0xe9 is not printable ASCII, tab, CR or LF"
        )

    def test_outside_byte_is_a_structural_error_of_its_line(self):
        lines = ["1 1:inf", "-1 2:1 é", "spam"]
        with pytest.raises(LibsvmFormatError, match="^line 2: byte 0xc3 "):
            parse_libsvm(lines)
        with pytest.raises(LibsvmFormatError, match="^line 1: unreadable label 'spam'"):
            parse_libsvm(lines[::-1])


class TestSourceKinds:
    def test_binary_handle(self):
        data = parse_libsvm(io.BytesIO(b"1 1:2\n-1 2:3\n"))
        np.testing.assert_array_equal(data.labels, [1.0, -1.0])
        np.testing.assert_array_equal(data.features, [[2.0, 0.0], [0.0, 3.0]])

    def test_bz2_handle_matches_the_plain_file(self, tmp_path):
        text = oracles.emit_libsvm(random_dataset(np.random.default_rng(11), 9, 5))
        plain = tmp_path / "plain.libsvm"
        plain.write_text(text)
        packed = tmp_path / "packed.libsvm.bz2"
        with bz2.open(packed, "wt") as handle:
            handle.write(text)
        with bz2.open(packed) as handle:
            assert outcome(parse_libsvm, handle) == outcome(parse_libsvm, plain)

    def test_missing_path_raises_like_open(self, tmp_path):
        missing = tmp_path / "missing.libsvm"
        assert outcome(parse_libsvm, missing) == outcome(oracles.parse_libsvm, missing)

    def test_unknown_labels_list_nan_last(self):
        with pytest.raises(LibsvmFormatError) as err:
            parse_libsvm(["nan 1:1", "1 1:1", "3 1:1"])
        assert str(err.value).startswith(
            f"labels {[np.float64(1.0), np.float64(3.0), np.float64('nan')]} match none"
        )


def _parse_message(text, tmp_path, kind, **kwargs):
    result = outcome(parse_libsvm, as_source(kind, text, tmp_path), **kwargs)
    assert isinstance(result[0], type), f"{text!r} parsed"
    return result


@pytest.mark.parametrize("kind", SOURCE_KINDS)
class TestExactErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("+1 1:1.0\nspam 1:2.0\n", "line 2: unreadable label 'spam'"),
            ("nan(1) 1:1\n", "line 1: unreadable label 'nan(1)'"),
            ("1:1 2:1\n", "line 1: unreadable label '1:1'"),
            ("+1 1:1.0 oops\n", "line 1, token 3: malformed feature 'oops'"),
            ("+1 1::1\n", "line 1, token 2: malformed feature '1::1'"),
            ("+1 1:1:1\n", "line 1, token 2: malformed feature '1:1:1'"),
            ("+1 :1\n", "line 1, token 2: malformed feature ':1'"),
            ("+1 1:\n", "line 1, token 2: malformed feature '1:'"),
            ("+1 1:1e\n", "line 1, token 2: malformed feature '1:1e'"),
            ("+1 1:nan(1)\n", "line 1, token 2: malformed feature '1:nan(1)'"),
            ("+1 3.0:1\n", "line 1, token 2: malformed feature '3.0:1'"),
            ("+1 3e0:1\n", "line 1, token 2: malformed feature '3e0:1'"),
            ("+1 0:1.0\n", "line 1, token 2: index 0 is not 1-based"),
            ("+1 -3:1.0\n", "line 1, token 2: index -3 is not 1-based"),
            ("+1 2:1.0 2:2.0\n", "line 1, token 3: index 2 does not increase"),
            ("+1 1:1.0\n\n-1 1:2.0 3:nan\n", "line 3, token 3: non-finite value '3:nan'"),
            ("+1 1:-Infinity\n", "line 1, token 2: non-finite value '1:-Infinity'"),
            ("+1 1:1e400\n", "line 1, token 2: non-finite value '1:1e400'"),
            ("", "no data rows found"),
            ("\n  \t\r\n\r", "no data rows found"),
            (
                "4 1:1.0\n5 1:2.0\n",
                f"labels {sorted([np.float64(4.0), np.float64(5.0)])} match none of "
                "the known conventions {-1,+1}, {0,1}, {1,2}",
            ),
            # precedence: a structural error anywhere beats a non-finite value
            ("+1 1:inf\n-1 1:1 x\n", "line 2, token 3: malformed feature 'x'"),
            # the first line with a structural error wins
            ("+1 2:1 1:1\nspam\n", "line 1, token 3: index 1 does not increase"),
            ("+1 1:1 2:1\n-1 0:1\nspam 1:1\n", "line 2, token 2: index 0 is not 1-based"),
            # within a line, the first failing token wins
            ("+1 1:1 oops 0:1\n", "line 1, token 3: malformed feature 'oops'"),
            ("+1 0:1 oops\n", "line 1, token 2: index 0 is not 1-based"),
            # line numbers count CRLF and lone CR as one break each
            ("1 1:1\r\n\r\n-1 x:1\r\n", "line 3, token 2: malformed feature 'x:1'"),
            ("1 1:1\r\r-1 1:1 x\r", "line 3, token 3: malformed feature 'x'"),
            ("1 1:1\n\r\n  \t\n-1 1:1 2:nan\n", "line 4, token 3: non-finite value '2:nan'"),
        ],
    )
    def test_format_errors(self, kind, text, message, tmp_path):
        result = _parse_message(text, tmp_path, kind)
        assert result == (LibsvmFormatError, message)
        assert result == outcome(oracles.parse_libsvm, as_source(kind, text, tmp_path))

    def test_non_finite_beats_n_features(self, kind, tmp_path):
        result = _parse_message("+1 5:inf\n", tmp_path, kind, n_features=2)
        assert result == (LibsvmFormatError, "line 1, token 2: non-finite value '5:inf'")

    def test_n_features_beats_label_mapping(self, kind, tmp_path):
        result = _parse_message("4 5:1\n", tmp_path, kind, n_features=2)
        assert result == (
            ValueError,
            "n_features=2 is smaller than the observed maximum index (5)",
        )

    def test_signed_index_is_accepted(self, kind, tmp_path):
        data = parse_libsvm(as_source(kind, "+1 +3:1 +4:-2.5\n", tmp_path))
        np.testing.assert_array_equal(data.features, [[0.0, 0.0, 1.0, -2.5]])


class TestOrderPreservingLabels:
    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (1.0, 2.0)])
    def test_smaller_label_becomes_minus_one(self, low, high):
        raw = np.array([high, low, low, high, high, low])
        mapped = _map_labels(raw)
        assert mapped.dtype == np.float64 and mapped.shape == (6,)
        np.testing.assert_array_equal(mapped, [1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
        assert mapped.tobytes() == oracles._map_labels(raw).tobytes()

    @pytest.mark.parametrize("value, want", [(0.0, -1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_one_class_documents(self, value, want):
        # a lone 1 reads as the {-1, +1} convention, which is tried first
        mapped = _map_labels(np.full(3, value))
        assert mapped.dtype == np.float64 and mapped.shape == (3,)
        np.testing.assert_array_equal(mapped, np.full(3, want))


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            dataset = random_dataset(
                rng,
                n_rows=int(rng.integers(1, 12)),
                n_features=int(rng.integers(1, 9)),
            )
            covered = bool(dataset.features[:, -1].any())
            back = parse_libsvm(
                oracles.emit_libsvm(dataset).splitlines(),
                n_features=dataset.n_features,
            )
            assert back == dataset, f"trial {trial} (last column covered: {covered})"

    def test_emitted_text_shape(self):
        dataset = parse_libsvm(["+1 2:0.5"])
        text = oracles.emit_libsvm(dataset)
        assert text == "1 2:0.5\n"


class TestSplit:
    def test_partition_and_determinism(self):
        rng = np.random.default_rng(1)
        dataset = random_dataset(rng, 30, 5)
        train_a, test_a = train_test_split(dataset, 0.7, seed=9)
        train_b, test_b = train_test_split(dataset, 0.7, seed=9)
        assert train_a == train_b and test_a == test_b
        assert train_a.n_rows == 21 and test_a.n_rows == 9
        merged = np.sort(
            np.concatenate([train_a.features.sum(axis=1), test_a.features.sum(axis=1)])
        )
        np.testing.assert_allclose(
            merged, np.sort(dataset.features.sum(axis=1)), rtol=1e-12
        )

    def test_even_split_of_690(self):
        rng = np.random.default_rng(2)
        dataset = random_dataset(rng, 690, 3, density=0.9)
        train, test = train_test_split(dataset, 0.5, seed=0)
        assert {train.n_rows, test.n_rows} == {345}

    def test_rejects_degenerate_fractions(self):
        rng = np.random.default_rng(3)
        dataset = random_dataset(rng, 4, 2)
        outside = r"^train_fraction must be in \(0, 1\), got "
        with pytest.raises(ValueError, match=outside + "0.0$"):
            train_test_split(dataset, 0.0, seed=0)
        with pytest.raises(ValueError, match=outside + "1.0$"):
            train_test_split(dataset, 1.0, seed=0)
        with pytest.raises(ValueError, match=outside + "nan$"):
            train_test_split(dataset, float("nan"), seed=0)
        with pytest.raises(ValueError, match="^train_fraction=0.1 leaves an empty split for n=4$"):
            train_test_split(dataset, 0.1, seed=0)


class TestStandardize:
    def test_train_statistics_and_inversion(self):
        rng = np.random.default_rng(4)
        train = random_dataset(rng, 40, 6, density=1.0).features
        test = random_dataset(rng, 10, 6, density=1.0).features
        train_out, test_out, transform = standardize(train, test)
        np.testing.assert_allclose(train_out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train_out.std(axis=0), 1.0, rtol=1e-12)
        # test set transformed with train statistics, not its own
        np.testing.assert_allclose(
            test_out, (test - transform.shift) / transform.scale, rtol=1e-12
        )
        np.testing.assert_allclose(
            transform.invert(train_out), train, rtol=1e-12, atol=1e-12
        )

    def test_constant_columns_pass_through(self):
        dense = np.array([[1.0, 2.0, 0.0], [1.0, 4.0, 0.0], [1.0, 6.0, 0.0]])
        out, test_out, transform = standardize(dense)
        assert test_out is None
        np.testing.assert_array_equal(out[:, [0, 2]], dense[:, [0, 2]])
        np.testing.assert_array_equal(transform.shift, [0.0, 4.0, 0.0])
        np.testing.assert_array_equal(transform.scale[[0, 2]], [1.0, 1.0])

    def test_feature_count_mismatch_is_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            standardize(
                random_dataset(rng, 5, 3).features,
                random_dataset(rng, 5, 4).features,
            )


class TestDataset:
    def test_equality_is_content_based(self):
        rng = np.random.default_rng(7)
        a = random_dataset(rng, 6, 4)
        b = Dataset(labels=a.labels.copy(), features=a.features.copy())
        assert a == b
        b.features[0, 0] += 1.0
        assert a != b
