"""load_dataset against the row-wise reference reader on random CSVs: quoted
fields, CRLF/LF/CR line endings, blank and whitespace-only lines, short and
long rows, duplicate header names, permuted and unread columns, bad cells
(among them numerals padded with the separator controls U+001C..U+001F),
naive, fixed, switching and mixed UTC offsets, and shuffled rows. A share of
the naive files pads no timestamp, so they take the one-call parse of the form
YYYY-MM-DDTHH:MM:SS; near-miss stamps, good and bad, send a file back to the
fromisoformat path or fault it there.

The array parse must give identical timestamps, array bytes and split, or the
same error class, message and line. Two differences are deliberate:
- a numeral that float() reads but the array parse does not (digit-group
  underscores, non-ASCII digits) is a bad value;
- rows that mix naive and offset timestamps raise UnparseableRow naming the
  first row whose awareness differs, where the reference ends in TypeError.
"""

import csv
import io
import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from helpers import reference_load_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshift.errors import LoadshiftError, UnparseableRow
from loadshift.ingest import PRICE_COLUMN, REQUIRED_COLUMNS, load_dataset

START = datetime(2024, 3, 9, 17)
ZONES = {
    "naive": (None,),
    "fixed": (timezone(timedelta(hours=5, minutes=30)),),
    "switching": (timezone(timedelta(hours=-5)), timezone(timedelta(hours=-6))),
    "mixed": (None, timezone.utc),
}
BAD_TIMESTAMPS = [
    "yesterday", "", "2024-13-01T00:00:00", "2024-03-09 25:00",
    # the fixed form, but a date or time that does not exist
    "0000-01-01T00:00:00", "2023-02-29T00:00:00", "2024-01-01T24:00:00", "2024-01-01T00:00:60",
    "２０２４-01-01T00:00:00",   # full-width digits
]
# forms of a naive stamp that fromisoformat reads and the one-call parse does
# not; Python 3.10's fromisoformat refuses "Z", as the reference does there
NEAR_MISSES = [lambda ts: ts.replace("T", " "), lambda ts: ts + ".000000", lambda ts: ts + "+00:00", lambda ts: ts + "Z"]
SEPARATORS = "\x1c\x1d\x1e\x1f"   # str.isspace() holds for each; float() rejects them, loadtxt strips them
BAD_VALUES = ["nan", "-inf", "inf", "1e500", "-3.5", "", "abc", "1.5.2", "0x10", *(f"1.5{c}" for c in SEPARATORS), "\x1d2"]
FLOAT_ONLY = ["1_000", "2_5.5", "١٢", "７.5"]   # float() reads these, loadtxt does not
DECOYS = ["decoy", "", "1.5", 'say "hi"', "a,b", "two\r\nlines", "1.5\x1f"]   # quoted at any line ending


def stamp(hour, zone):
    ts = START + timedelta(hours=hour)
    return ts.isoformat() if zone is None else ts.replace(tzinfo=timezone.utc).astimezone(zone).isoformat()


def number(rnd, lo):
    x = rnd.uniform(lo, 500.0)
    return rnd.choice([repr(x), f"{x:.2f}", f"{x:e}", f" {x:.1f} ", f"{x:.3f}\t"])


@st.composite
def csv_files(draw):
    """(text, load_dataset keyword arguments, planted float-only cell or None).

    Hypothesis draws the structure; a seeded generator fills in the cells."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    canonical = list(REQUIRED_COLUMNS) + ([PRICE_COLUMN] if draw(st.booleans()) else [])
    header = draw(st.permutations(canonical + draw(st.lists(st.sampled_from(canonical + ["note"]), max_size=3))))
    position = {name: j for j, name in enumerate(header)}   # the last duplicate is read

    hours = rnd.randint(0, 40)
    dropped = draw(st.sets(st.integers(0, hours), max_size=2)) if draw(st.booleans()) else set()
    kept = draw(st.permutations([h for h in range(hours) if h not in dropped]))
    faulty = draw(st.sets(st.sampled_from(kept), max_size=2)) if kept and draw(st.booleans()) else set()
    # at least half the files are naive, and half of all pad no stamp: a naive
    # file with no padding and no near-miss stamp takes the one-call parse
    zones = ZONES["naive" if draw(st.booleans()) else draw(st.sampled_from(sorted(ZONES)))]
    padded = draw(st.booleans())
    near_miss = rnd.choice(kept) if kept and rnd.random() < 0.3 else None
    rows = []
    for h in kept:
        pad = rnd.choice(["", " ", rnd.choice(SEPARATORS)]) if padded else ""   # strip() takes all three off a timestamp
        zone = rnd.choice(zones)
        ts = stamp(h, zone)
        if h == near_miss and zone is None:
            ts = rnd.choice(NEAR_MISSES)(ts)
        cells = {"timestamp": pad + ts + pad}
        for c in canonical[1:]:
            cells[c] = number(rnd, -50.0 if c in REQUIRED_COLUMNS[1:6] else 0.0)
        fault = rnd.choice(["timestamp", "value", "sign", "short", "long"]) if h in faulty else "none"
        if fault == "timestamp":
            cells["timestamp"] = rnd.choice(BAD_TIMESTAMPS)
        elif fault == "value":
            cells[rnd.choice(canonical[1:])] = rnd.choice(BAD_VALUES)
        elif fault == "sign":   # load or price; -0.0 is not negative
            cells[rnd.choice(canonical[6:])] = rnd.choice(["-0.5", "-1e-9", "-0.0"])
        line = [cells[name] if name in cells and position[name] == j
                else rnd.choice(DECOYS) for j, name in enumerate(header)]
        if fault == "short":
            line = line[: rnd.randrange(len(line))]
        elif fault == "long":
            line += rnd.choices(DECOYS, k=rnd.randint(1, 3))
        rows.append((line, fault))

    planted = None
    clean = [i for i, (_, fault) in enumerate(rows) if fault == "none"]
    if clean and rnd.random() < 0.2:
        planted = (rnd.choice(FLOAT_ONLY), rnd.choice(canonical[1:]))
        rows[rnd.choice(clean)][0][position[planted[1]]] = planted[0]

    end = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])), lineterminator=end)
    writer.writerow(header)
    blank_rate = rnd.choice([0.0, 0.3])
    whitespace_row = rnd.randrange(len(rows) + 1) if rnd.random() < 0.25 else None
    for i, (line, _) in enumerate(rows):
        if rnd.random() < blank_rate:
            buffer.write(end)
        if i == whitespace_row:
            buffer.write(rnd.choice([" ", "\t", "  "]) + end)
        writer.writerow(line)

    kwargs = {"allow_gaps": draw(st.booleans())}
    if draw(st.booleans()):
        kwargs["split_fraction"] = draw(st.floats(0.0, 1.0))
    else:
        kwargs["split_boundary"] = datetime.fromisoformat(stamp(draw(st.integers(-2, 42)), draw(st.sampled_from(zones))))
    return buffer.getvalue(), kwargs, planted


def outcome(loader, path, kwargs):
    try:
        ds = loader(path, **kwargs)
    except (LoadshiftError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    arrays = [ds.weather, ds.load] + ([] if ds.price is None else [ds.price])
    return (
        tuple(ts.isoformat() for ts in ds.timestamps),
        [(a.dtype, a.shape, a.tobytes()) for a in arrays],
        ds.n_train,
    )


def unparseable(line, reason):
    return UnparseableRow, str(UnparseableRow(line, reason)), line


def expected_outcome(path, kwargs, planted):
    """The reference's outcome, moved to the first float-only cell or the first
    row whose offset awareness differs, where those apply."""
    expected = outcome(reference_load_dataset, path, kwargs)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [(reader.line_num, row) for row in reader if row]
    if planted is not None:
        raw, name = planted
        column = max(j for j, h in enumerate(header) if h == name)
        line = next(n for n, row in rows if column < len(row) and row[column] == raw)
        if not (expected[0] is UnparseableRow and expected[2] < line):
            return unparseable(line, f"bad value {raw!r} in column {name!r}")
    if expected[0] is TypeError:
        column = max(j for j, h in enumerate(header) if h == "timestamp")
        aware = [(n, datetime.fromisoformat(row[column].strip()).tzinfo is not None) for n, row in rows]
        line = next(n for n, is_aware in aware if is_aware != aware[0][1])
        return unparseable(line, "UTC offset awareness differs from the first row's")
    return expected


@settings(max_examples=250, deadline=None)
@given(data=csv_files())
def test_array_parse_matches_row_wise_reader(data):
    text, kwargs, planted = data
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(load_dataset, path, kwargs) == expected_outcome(path, kwargs, planted)
