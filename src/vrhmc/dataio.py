"""LIBSVM-format data handling for binary classification experiments.

The on-disk format is one example per line,

    <label> <index>:<value> <index>:<value> ...

with 1-based, strictly increasing feature indices and finite values;
an absent index is a zero. A Dataset holds the labels, normalized to
{-1, +1}, and a dense (rows, features) array. The three label
conventions found in common binary benchmark files are supported:
{-1, +1} kept as is, {0, 1} mapped order-preservingly to {-1, +1}, and
{1, 2} likewise.

A document is printable ASCII plus tab, CR and LF; any other byte is an
error naming its line. Lines end at LF, CRLF or a lone CR; tokens are
separated by spaces and tabs, and blank lines are skipped but counted.
A label is a number as Python's float() reads it (inf, infinity and nan
in any case included), an index an integer as int() reads it, and a
value a float again, except that "_" digit separators (1_0) are refused.
parse_libsvm reads a path, an open text or binary handle, or a list of
lines. It reads the source as bytes, so decoding does not depend on the
locale; it classifies the bytes, finds tokens and lines and checks the
grammar with whole-buffer array operations, and converts every number in
one np.fromstring call. Python looks at single tokens only to word the
error of a line an array check flagged.

Parsing fills the dense array directly, a split is a row take, and
standardize fits and applies its transform to the split's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "LibsvmFormatError",
    "parse_libsvm",
    "emit_libsvm",
    "train_test_split",
    "standardize",
    "StandardizeTransform",
]


@dataclass
class Dataset:
    """Binary-classification dataset: labels in {-1, +1}, dense features.

    features is a (rows, features) float array; row i goes with labels[i].
    """

    labels: np.ndarray
    features: np.ndarray

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.labels, other.labels) and np.array_equal(
            self.features, other.features
        )


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input, with the offending line in the message."""


# Byte classes. _END separates tokens (space, tab, CR, LF); _BAD is any
# byte outside printable ASCII, tab, CR and LF. Each letter of inf,
# infinity and nan has a class of its own, numbered after _BAD; e is the
# exponent mark.
_END, _DIGIT, _SIGN, _DOT, _EXP, _COLON, _OTHER, _BAD = range(8)
_WORD_LETTERS = "ifntya"


def _byte_classes():
    table = np.full(256, _BAD, dtype=np.uint8)
    table[0x21:0x7F] = _OTHER
    for chars, cls in (
        (" \t\r\n", _END),
        ("0123456789", _DIGIT),
        ("+-", _SIGN),
        (".", _DOT),
        ("eE", _EXP),
        (":", _COLON),
    ):
        table[list(chars.encode())] = cls
    for k, letter in enumerate(_WORD_LETTERS):
        table[list((letter + letter.upper()).encode())] = _BAD + 1 + k
    return table


_BYTE_CLASS = _byte_classes()

# The token grammar as an automaton over byte classes, each class named by
# a byte of it ("0" any digit, "+" either sign, " " the end of the token).
# A label starts in "float", a feature token in "index". Every byte is one
# step, and state 0 (reject) and 1 (accept) absorb.
_RULES = {
    # the index as int() reads it, then the colon
    "index": {"+": "index sign", "0": "index digits"},
    "index sign": {"0": "index digits"},
    "index digits": {"0": "index digits", ":": "float"},
    # a number as float() reads it; the words follow below
    "float": {"+": "sign", "0": "int", ".": "point", "i": "i", "n": "n"},
    "sign": {"0": "int", ".": "point", "i": "i", "n": "n"},
    "int": {"0": "int", ".": "fraction", "e": "e", " ": "accept"},
    "point": {"0": "fraction"},
    "fraction": {"0": "fraction", "e": "e", " ": "accept"},
    "e": {"+": "exponent sign", "0": "exponent"},
    "exponent sign": {"0": "exponent"},
    "exponent": {"0": "exponent", " ": "accept"},
}


def _automaton():
    rules = {state: dict(moves) for state, moves in _RULES.items()}
    for word in ("inf", "infinity", "nan"):
        for k in range(1, len(word)):
            rules.setdefault(word[:k], {})[word[k]] = word[: k + 1]
        rules.setdefault(word, {})[" "] = "accept"
    states = ["reject", "accept", *rules]
    table = np.zeros((len(states), _BAD + 1 + len(_WORD_LETTERS)), dtype=np.uint8)
    table[1] = 1
    for state, moves in rules.items():
        for char, target in moves.items():
            table[states.index(state), _BYTE_CLASS[ord(char)]] = states.index(target)
    return table, states.index("float"), states.index("index")


_NEXT, _LABEL_START, _INDEX_START = _automaton()


def _read_bytes(source):
    """The source's text as a writable uint8 array, plus one trailing space.

    The space ends the last token, so the number reader never reads past
    the array.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            data = handle.read()
    elif hasattr(source, "read"):
        data = source.read()
    else:
        # a line of a list is one line whatever breaks it holds
        data = "\n".join(line.translate({10: " ", 13: " "}) for line in source)
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    text = np.empty(len(data) + 1, dtype=np.uint8)
    text[:-1] = np.frombuffer(data, dtype=np.uint8)
    text[-1] = ord(" ")
    return text


def _tokens(text):
    """Token bounds, and the first token and line number of each row.

    A row is a line with at least one token; its first token is the label.
    Returns (classes, starts, ends, row_token, row_line); classes has one
    class per byte plus a trailing _END.
    """
    classes = np.empty(text.size + 1, dtype=np.uint8)
    np.take(_BYTE_CLASS, text, out=classes[:-1])
    classes[-1] = _END
    inside = np.zeros(text.size + 2, dtype=bool)
    np.not_equal(classes[:-1], _END, out=inside[1:-1])
    edges = np.flatnonzero(inside[1:] != inside[:-1])
    del inside
    starts, ends = edges[0::2], edges[1::2]
    # a line ends at LF, or at a CR not followed by LF
    breaks = text == 13
    breaks[:-1] &= text[1:] != 10
    breaks |= text == 10
    first = np.searchsorted(starts, np.flatnonzero(breaks))
    del breaks
    bounds = np.concatenate(([0], first, [starts.size]))
    nonblank = bounds[:-1] < bounds[1:]
    return classes, starts, ends, bounds[:-1][nonblank], np.flatnonzero(nonblank) + 1


def _first_rejected(classes, starts, row_token):
    """Index of the first token the grammar rejects, or the token count."""
    state = np.full(starts.size, _INDEX_START, dtype=np.uint8)
    state[row_token] = _LABEL_START
    position = starts.copy()
    token = np.arange(starts.size)
    first = starts.size
    while state.size:
        state = _NEXT[state, classes.take(position, mode="clip")]
        position += 1
        done = state < 2
        # drop finished tokens once they are half of those left
        if 2 * np.count_nonzero(done) >= state.size:
            rejected = token[state == 0]
            if rejected.size:
                first = min(first, int(rejected[0]))
            live = ~done
            state, position, token = state[live], position[live], token[live]
    return first


def _numbers(text):
    """Every number of a run of tokens the grammar accepted, in order."""
    colons = text == ord(":")
    text[colons] = ord(" ")
    try:
        return np.fromstring(text, sep=" ")
    finally:
        text[colons] = ord(":")


def _strict(convert, text):
    """convert(text), refusing the "_" digit separators Python accepts."""
    if "_" in text:
        raise ValueError(text)
    return convert(text)


def _check_line(line, lineno):
    """Raise the error of one line, token by token; else its largest index.

    Runs only on a line an array check flagged, to word its error.
    """
    outside = np.flatnonzero(_BYTE_CLASS[line] == _BAD)
    if outside.size:
        raise LibsvmFormatError(
            f"line {lineno}: byte {int(line[outside[0]]):#04x} is not printable "
            "ASCII, tab, CR or LF"
        )
    tokens = line.tobytes().decode("ascii").split()
    try:
        _strict(float, tokens[0])
    except ValueError:
        raise LibsvmFormatError(
            f"line {lineno}: unreadable label {tokens[0]!r}"
        ) from None
    index = 0
    for pos, token in enumerate(tokens[1:], start=2):
        previous = index
        try:
            index_text, value_text = token.split(":", 1)
            index = _strict(int, index_text)
            _strict(float, value_text)
        except ValueError:
            raise LibsvmFormatError(
                f"line {lineno}, token {pos}: malformed feature {token!r}"
            ) from None
        if index < 1:
            raise LibsvmFormatError(
                f"line {lineno}, token {pos}: index {index} is not 1-based"
            )
        if index <= previous:
            raise LibsvmFormatError(
                f"line {lineno}, token {pos}: index {index} does not increase"
            )
    return index


def _map_labels(raw, label_map):
    raw = np.asarray(raw, dtype=float)
    if isinstance(label_map, dict):
        mapped = np.empty_like(raw)
        for k, value in enumerate(raw):
            if value not in label_map:
                raise LibsvmFormatError(
                    f"row {k}: label {value!r} not covered by the label map"
                )
            mapped[k] = label_map[value]
        if not np.all(np.isin(mapped, (-1.0, 1.0))):
            raise LibsvmFormatError("label map must produce values in {-1, +1}")
        return mapped
    if label_map != "auto":
        raise ValueError("label_map must be 'auto' or a dict")
    observed = np.unique(raw)
    # order-preserving policies: the smaller raw label becomes -1
    for low, high in ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0)):
        if set(observed) <= {low, high}:
            return raw if low == -1.0 else np.where(raw == low, -1.0, 1.0)
    raise LibsvmFormatError(
        f"labels {list(observed)} match none of the known conventions "
        "{-1,+1}, {0,1}, {1,2}"
    )


def parse_libsvm(source, label_map="auto", n_features=None):
    """Parse LIBSVM text into a Dataset.

    source may be a path, an open text or binary handle (such as
    bz2.open(path)), or an iterable of lines; a line of an iterable is
    one line even if it holds a CR or LF. label_map is either 'auto'
    (recognize the three standard binary label conventions) or an explicit
    {raw: +-1} dict. n_features overrides the inferred feature count (the
    maximum index seen); it must not be smaller than what the data
    requires.

    Errors come in a fixed order. The first line with a structural error
    wins: an unreadable label, a malformed feature, an index that is not
    1-based or does not increase, or a byte outside printable ASCII, tab,
    CR and LF. A non-finite value is reported only when no line has a
    structural error. Then come "no data rows found", the n_features check
    and the label mapping.

    Two inputs are refused that Python's own number readers accept: a
    byte outside printable ASCII, tab, CR and LF (Unicode digits and
    spaces), and numbers written with "_" separators (1_0).
    """
    text = _read_bytes(source)
    classes, starts, ends, row_token, row_line = _tokens(text)
    rejected = _first_rejected(classes, starts, row_token)
    del classes
    # the rows before the rejected token's row passed the grammar
    n_rows = row_token.size
    if rejected < starts.size:
        n_rows = int(np.searchsorted(row_token, rejected, "right")) - 1
    limit = row_token[n_rows] if n_rows < row_token.size else starts.size
    numbers = _numbers(text[starts[0] : ends[limit - 1]]) if limit else np.empty(0)
    # a row is its label then (index, value) pairs
    label_slots = 2 * row_token[:n_rows] - np.arange(n_rows)
    labels = numbers[label_slots]
    pairs = np.delete(numbers, label_slots)
    del numbers
    index, values = pairs[0::2], pairs[1::2]
    row_feature = row_token[:n_rows] - np.arange(n_rows)  # first pair of each row

    # Flag the rows with an index below 1, one that does not increase, or
    # one of 2**53 or more, which a float may not hold exactly; the line
    # check words the first error, or returns the exact largest index. A
    # row it passes still fails below: no array has 2**53 columns.
    flagged = (index < 1) | (index >= 2.0**53)
    stalls = index[1:] <= index[:-1]
    heads = row_feature[(row_feature > 0) & (row_feature < index.size)]
    stalls[heads - 1] = False  # a row's first index has no predecessor
    flagged[1:] |= stalls
    suspects = np.searchsorted(row_feature, np.flatnonzero(flagged), "right") - 1
    suspects = np.unique(suspects).tolist()
    if n_rows < row_token.size:
        suspects.append(n_rows)  # the row the grammar rejected
    exact = []
    for row in suspects:
        last = row_token[row + 1] - 1 if row + 1 < row_token.size else starts.size - 1
        line = text[starts[row_token[row]] : ends[last]]
        exact.append(_check_line(line, row_line[row]))
    if n_rows < row_token.size:
        raise RuntimeError(f"line {row_line[n_rows]}: rejected, but no error found")

    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(row_feature, k, "right")) - 1
        pos = k - row_feature[row] + 2
        token = row_token[row] + pos - 1
        raise LibsvmFormatError(
            f"line {row_line[row]}, token {pos}: non-finite value "
            f"{text[starts[token] : ends[token]].tobytes().decode('ascii')!r}"
        )
    if not n_rows:
        raise LibsvmFormatError("no data rows found")
    inferred = max(exact) if exact else int(index.max()) if index.size else 0
    if n_features is None:
        n_features = inferred
    elif n_features < inferred:
        raise ValueError(
            f"n_features={n_features} is smaller than the observed maximum "
            f"index ({inferred})"
        )
    # free all but the scatter's inputs before the dense array exists
    del text, starts, ends, flagged, stalls, finite
    flat = np.repeat(
        np.arange(n_rows) * n_features, np.diff(row_feature, append=index.size)
    )
    np.add(flat, index, out=flat, casting="unsafe")
    flat -= 1
    values = values.copy()  # so the (index, value) pairs can go
    del pairs, index
    features = np.zeros((n_rows, n_features))
    features.reshape(-1)[flat] = values
    return Dataset(labels=_map_labels(labels, label_map), features=features)


def emit_libsvm(dataset):
    """Serialize a Dataset back to LIBSVM text.

    Each row's nonzeros are written with repr, so emit followed by parse
    (with the same n_features) reproduces the Dataset exactly.
    """
    lines = []
    for label, row in zip(dataset.labels, dataset.features):
        parts = [str(int(label))]
        parts.extend(f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def train_test_split(dataset, train_fraction, seed):
    """Deterministic shuffled split into (train, test).

    Rows are permuted with a generator seeded by seed and the first
    round(train_fraction * n) rows become the training set. Both sides
    must end up non-empty.
    """
    n = dataset.n_rows
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise ValueError(
            f"train_fraction={train_fraction} leaves an empty split for n={n}"
        )
    order = np.random.default_rng(seed).permutation(n)
    return tuple(
        Dataset(dataset.labels[rows], dataset.features[rows])
        for rows in np.split(order, [n_train])
    )


@dataclass(frozen=True)
class StandardizeTransform:
    """Affine per-feature transform x -> (x - shift) / scale."""

    shift: np.ndarray
    scale: np.ndarray

    def apply(self, dense):
        # one new array, divided in place; dense itself is left as it is
        out = np.subtract(dense, self.shift)
        out /= self.scale
        return out

    def invert(self, dense):
        return dense * self.scale + self.shift


def standardize(train, test=None):
    """Standardize dense feature arrays to zero mean, unit variance.

    train and test are (rows, features) arrays, typically the features of
    the two sides of a split; the transform is fitted on train alone.
    Zero-variance features pass through untouched (shift 0, scale 1) so
    constant columns such as intercepts survive. Returns the transformed
    train array, the transformed test array (None if not given), and the
    fitted transform.
    """
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    constant = std == 0.0
    shift = np.where(constant, 0.0, mean)
    scale = np.where(constant, 1.0, std)
    transform = StandardizeTransform(shift=shift, scale=scale)
    if test is not None and test.shape[1] != train.shape[1]:
        raise ValueError("train and test disagree on the number of features")
    test_out = None if test is None else transform.apply(test)
    return transform.apply(train), test_out, transform
