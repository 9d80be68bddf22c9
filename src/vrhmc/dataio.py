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
locale, and works with whole-buffer array operations: it classifies the
bytes and finds tokens and lines; it marks the plain tokens, a label
[+-]?digits and a feature [+-]?digits:[+-]?digits, which are always
valid; it checks the colons, indices and bytes of the other tokens only;
then it reads labels, indices and values as three streams from the token
bounds and colons. A plain number of at most 15 digits is read by digit
arithmetic, every other one by numpy's bytes-to-float cast, which
refuses what float() refuses. Python looks at single tokens only to word
the error of a line an array check or the cast flagged.

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
# byte outside printable ASCII, tab, CR and LF, and "_" has a class of its
# own, so that the line check tells the two apart.
_END, _DIGIT, _SIGN, _COLON, _OTHER, _BAD, _UNDERSCORE = range(7)


def _byte_classes():
    table = np.full(256, _BAD, dtype=np.uint8)
    table[0x21:0x7F] = _OTHER
    for chars, cls in (
        (" \t\r\n", _END),
        ("0123456789", _DIGIT),
        ("+-", _SIGN),
        (":", _COLON),
        ("_", _UNDERSCORE),
    ):
        table[list(chars.encode())] = cls
    return table


_BYTE_CLASS = _byte_classes()


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


def _plain(classes, starts, ends, is_label):
    """Whether each token is plain.

    A plain label is [+-]?digits and a plain feature token
    [+-]?digits:[+-]?digits; both are always valid.
    """
    # A sign after a token start or a colon and before a digit weighs
    # nothing, like a digit; a colon after a digit and before another byte
    # of its token weighs 1; every other byte of a token weighs 2. A plain
    # label then weighs 0 and a plain feature token 1.
    sign = classes == _SIGN
    sign[:-1] &= classes[1:] == _DIGIT
    sign[1:] &= (classes[:-1] == _END) | (classes[:-1] == _COLON)
    colon = classes == _COLON
    colon[:-1] &= classes[1:] != _END
    colon[1:] &= classes[:-1] == _DIGIT
    colon[0] = False
    weight = classes > _DIGIT
    weight ^= sign
    del sign
    weight = weight.view(np.uint8)
    weight *= 2
    weight -= colon
    del colon
    # A token's sum runs to the next token's start over end bytes, which
    # weigh nothing. It wraps around 256 only for tokens of 128 bytes or
    # more, which are not plain.
    weight = np.add.reduceat(weight, starts, dtype=np.uint8)
    return np.where(is_label, weight == 0, weight == 1) & (ends - starts < 128)


def _first_rejected(classes, starts, ends, is_label, plain):
    """Index of the first token refused before reading, or the token count.

    Only the tokens that are not plain are looked at. One is refused if it
    holds a byte outside printable ASCII, tab, CR and LF or a "_", if it is
    a label holding a colon or a feature token without exactly one, or if
    its index is not [+-]?digits. The colons then line up with the feature
    tokens, and every index reads as digits; the bytes-to-float cast that
    reads the labels and values checks them.
    """
    token = np.flatnonzero(~plain)
    if not token.size:
        return starts.size
    first, last, feature = starts[token], ends[token], ~is_label[token]
    # a byte of class _BAD or _UNDERSCORE weighs 2 in _plain, so its token
    # is one of these
    refused = np.zeros(token.size, dtype=bool)
    refused[np.searchsorted(first, np.flatnonzero(classes >= _BAD), "right") - 1] = True
    # step over each index's digits, after its sign; a colon must end them
    head = first[feature] + (classes[first[feature]] == _SIGN)
    stop, live = head.copy(), np.arange(head.size)
    while live.size:
        live = live[classes[stop[live]] == _DIGIT]
        stop[live] += 1
    refused[feature] |= (stop == head) | (classes[stop] != _COLON)
    colons = np.flatnonzero(classes == _COLON)
    count = np.searchsorted(colons, last) - np.searchsorted(colons, first)
    refused |= count != feature
    rejected = token[refused]
    return int(rejected[0]) if rejected.size else starts.size


# at most this many digits sum exactly in floats: every partial sum is an
# integer below 10**15 < 2**53
_FAST_DIGITS = 15


def _numbers(text, first, last, plain):
    """The numbers text[first:last] as float() reads them, and where it fails.

    A plain number, [+-]?digits with at most _FAST_DIGITS digits, is read
    by Horner's rule over its digit columns in floats; the sign then
    negates the float, so -0 reads -0.0. Every other number goes through
    numpy's bytes-to-float cast, one length at a time, which refuses what
    float() refuses. Returns the numbers and, for every length group the
    cast refused, the positions of its first token and of its first token
    the cast refuses; the group's numbers are left at 0.
    """
    out = np.zeros(first.size)
    lead = text[first]
    negative = lead == ord("-")
    digits = first + (plain & (negative | (lead == ord("+"))))
    size = last - digits
    fast = plain & (size <= _FAST_DIGITS)
    columns = int(size.max(initial=0, where=fast))
    del size
    for _ in range(columns):
        live = digits < last
        digit = text.take(digits, mode="clip")
        digit -= 48
        np.multiply(out, 10.0, out=out, where=live)
        np.add(out, digit, out=out, where=live)
        digits += 1
    np.negative(out, out=out, where=fast & negative)
    other = np.flatnonzero(~fast)
    width = last[other] - first[other]
    failed = []
    for w in np.unique(width):
        group = other[width == w]
        chars = text[first[group, None] + np.arange(w)]
        try:
            # an empty value (w = 0) fails the view as well
            out[group] = chars.view(f"S{w}").ravel().astype(float)
        except ValueError:
            failed.append(group[[0, _first_refused(chars, w)]])
    return out, failed


def _first_refused(chars, width):
    """Index of the first row of chars, a refused cast group, the cast refuses.

    Halving: the cast of the lower half tells which half holds the first
    refused row, so the search costs about one more cast of the group.
    """
    lo, hi = 0, len(chars)  # chars[lo:hi] holds the first refused row
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            chars[lo:mid].view(f"S{width}").astype(float)
            lo = mid
        except ValueError:
            hi = mid
    return lo


# the pairs are read this many tokens at a time, so that their
# temporaries stay small next to the text
_BLOCK_TOKENS = 65536


def _pairs(text, starts, ends, is_feature, plain):
    """The index and value of every feature token, and where values failed.

    Every token given passed _first_rejected: a label holds no colon, a
    feature token one, and its index is [+-]?digits. Returns the two
    arrays and, per value group the cast refused, the pair positions
    _numbers gives.
    """
    n_pairs = np.count_nonzero(is_feature)
    index, values = np.empty(n_pairs), np.empty(n_pairs)
    failed = []
    done = 0
    for lo in range(0, starts.size, _BLOCK_TOKENS):
        block = slice(lo, lo + _BLOCK_TOKENS)
        feature = is_feature[block]
        first, last = starts[block][feature], ends[block][feature]
        colons = np.flatnonzero(text[starts[lo] : ends[block][-1]] == ord(":"))
        colons += starts[lo]
        pairs = slice(done, done + colons.size)
        index[pairs] = _numbers(text, first, colons, np.ones_like(colons, bool))[0]
        colons += 1
        values[pairs], refused = _numbers(text, colons, last, plain[block][feature])
        failed.extend(group + done for group in refused)
        done = pairs.stop
    return index, values, failed


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
        # look up each distinct label once, then gather by row
        observed = np.unique(raw)
        slot = np.searchsorted(observed, raw)
        uncovered = np.array([value not in label_map for value in observed], dtype=bool)
        if uncovered.any():
            k = int(np.argmax(uncovered[slot]))
            raise LibsvmFormatError(
                f"row {k}: label {raw[k]!r} not covered by the label map"
            )
        targets = np.empty_like(observed)
        for j, value in enumerate(observed):
            targets[j] = label_map[value]
        if not np.all(np.isin(targets, (-1.0, 1.0))):
            raise LibsvmFormatError("label map must produce values in {-1, +1}")
        return targets[slot]
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

    Only the tokens that are not plain (a plain label is [+-]?digits, a
    plain feature token [+-]?digits:[+-]?digits) are checked before
    reading, for their bytes, colons and index. The rows before the first
    token refused are read as three streams, the (index, value) pairs in
    blocks of tokens. A plain number of at most 15 digits is summed from
    its digits in floats, every sum exact below 2**53, and negated as a
    float, so -0 reads -0.0; every other number goes through numpy's
    bytes-to-float cast, which refuses what float() refuses. In a length
    group the cast refused, halving finds the first number it refuses.
    That number's row, the rows an index check flagged, and the refused
    token's row then go through the line check in order; the first error
    found wins.
    """
    text = _read_bytes(source)
    classes, starts, ends, row_token, row_line = _tokens(text)
    n_tokens = starts.size
    is_label = np.zeros(n_tokens, dtype=bool)
    is_label[row_token] = True
    plain = _plain(classes, starts, ends, is_label)
    rejected = _first_rejected(classes, starts, ends, is_label, plain)
    del classes
    # the rows before the rejected token's row are read
    n_rows = row_token.size
    if rejected < n_tokens:
        n_rows = int(np.searchsorted(row_token, rejected, "right")) - 1
    limit = row_token[n_rows] if n_rows < row_token.size else n_tokens
    # each row's bytes, from its label's start to its last token's end
    row_start = starts[row_token]
    row_end = ends[np.append(row_token, n_tokens)[1:] - 1]
    # a row is its label then (index, value) pairs, read as three streams
    label = row_token[:n_rows]
    labels, label_failed = _numbers(text, row_start[:n_rows], ends[label], plain[label])
    index, values, value_failed = _pairs(
        text, starts[:limit], ends[:limit], ~is_label[:limit], plain[:limit]
    )
    del starts, ends, is_label, plain
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
    # Per group the cast refused, failing holds the row of its first number
    # and the row of its first refused number, which must fail the line
    # check; so must the rejected token's row. Any other bad row is flagged
    # on its own, so the first bad line still wins.
    failing = [row_feature.searchsorted(k, "right") - 1 for k in value_failed]
    failing += label_failed
    if n_rows < row_token.size:
        failing.append([n_rows])
    exact = []
    checked = np.concatenate([suspects, *(rows[-1:] for rows in failing)])
    for row in np.unique(checked).tolist():
        exact.append(_check_line(text[row_start[row] : row_end[row]], row_line[row]))
    if failing:
        row = min(int(np.min(rows)) for rows in failing)
        raise RuntimeError(f"line {row_line[row]}: rejected, but no error found")

    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        row = int(np.searchsorted(row_feature, k, "right")) - 1
        pos = k - row_feature[row] + 2
        token = text[row_start[row] : row_end[row]].tobytes().split()[pos - 1]
        raise LibsvmFormatError(
            f"line {row_line[row]}, token {pos}: non-finite value "
            f"{token.decode('ascii')!r}"
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
    del text, row_start, row_end, flagged, stalls, finite
    flat = np.repeat(
        np.arange(n_rows) * n_features, np.diff(row_feature, append=index.size)
    )
    np.add(flat, index, out=flat, casting="unsafe")
    flat -= 1
    del index
    features = np.zeros((n_rows, n_features))
    features.reshape(-1)[flat] = values
    return Dataset(labels=_map_labels(labels, label_map), features=features)


def train_test_split(dataset, train_fraction, seed):
    """Deterministic shuffled split into (train, test).

    Rows are permuted with a generator seeded by seed and the first
    round(train_fraction * n) rows become the training set. Both sides
    must end up non-empty.
    """
    n = dataset.n_rows
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
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
