"""CSV and JSONL round-trip for connection records.

Traces at the default experiment scale run to a few million records, so the
readers stream line by line instead of loading whole files eagerly.  Paths
ending in ``.gz`` are compressed/decompressed transparently — month-scale
CDR archives are always shipped gzipped.

Two reading tiers share each text format:

* ``read_records_*`` yield one :class:`ConnectionRecord` per line — the
  legacy path, kept for record-at-a-time consumers.
* ``read_columnar_*`` parse in line blocks straight into a
  :class:`~repro.cdr.columnar.ColumnarCDRBatch` — no record objects, one
  vectorized numeric parse per block.  This is the fallback ingest path
  for legacy text traces; freshly generated traces skip text entirely via
  the binary ``.cdrz`` store (:mod:`repro.cdr.store`).
"""

from __future__ import annotations

import csv
import gzip
import json
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import IO, Any, cast

import numpy as np

from repro.cdr.columnar import ColumnarCDRBatch
from repro.cdr.errors import CDRValidationError
from repro.cdr.records import CDRBatch, ConnectionRecord

_CSV_FIELDS = ("start", "car_id", "cell_id", "carrier", "technology", "duration")

#: Lines per parse block of the columnar text readers; bounds peak memory
#: while keeping the per-block numpy parse large enough to amortize.
_BLOCK_LINES = 131_072


def _format_stem(path: str | Path) -> str:
    """The filename with a trailing ``.gz`` stripped: what decides the format.

    Only the *suffix* of the final path component may decide anything —
    matching substrings of the whole path (``"csv" in str(path)``) would
    let a directory named ``csvdata/`` silently flip the newline handling
    of the JSONL files inside it.
    """
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return name


def _open_text(path: str | Path, mode: str) -> IO[str]:
    """Open a text file, transparently gzipped when the suffix is .gz."""
    newline = "" if _format_stem(path).endswith(".csv") else None
    if str(path).endswith(".gz"):
        return cast("IO[str]", gzip.open(path, mode + "t", newline=newline))
    return open(path, mode, newline=newline)


def write_records_csv(path: str | Path, records: Iterable[ConnectionRecord]) -> int:
    """Write records to CSV; returns the number of rows written."""
    count = 0
    with _open_text(path, "w") as f:
        writer = csv.writer(f)
        writer.writerow(_CSV_FIELDS)
        for rec in records:
            writer.writerow(
                [rec.start, rec.car_id, rec.cell_id, rec.carrier, rec.technology, rec.duration]
            )
            count += 1
    return count


def read_records_csv(path: str | Path) -> Iterator[ConnectionRecord]:
    """Stream records from a CSV file written by :func:`write_records_csv`."""
    with _open_text(path, "r") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or set(_CSV_FIELDS) - set(reader.fieldnames):
            raise CDRValidationError(
                f"CSV at {path} is missing required columns {_CSV_FIELDS}"
            )
        for row in reader:
            yield _record_from_mapping(row, source=str(path))


def write_records_jsonl(path: str | Path, records: Iterable[ConnectionRecord]) -> int:
    """Write records as one JSON object per line; returns the row count."""
    count = 0
    with _open_text(path, "w") as f:
        for rec in records:
            f.write(
                json.dumps(
                    {
                        "start": rec.start,
                        "car_id": rec.car_id,
                        "cell_id": rec.cell_id,
                        "carrier": rec.carrier,
                        "technology": rec.technology,
                        "duration": rec.duration,
                    }
                )
            )
            f.write("\n")
            count += 1
    return count


def read_records_jsonl(path: str | Path) -> Iterator[ConnectionRecord]:
    """Stream records from a JSONL file written by :func:`write_records_jsonl`."""
    with _open_text(path, "r") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CDRValidationError(
                    f"{path}:{line_no}: invalid JSON: {exc}"
                ) from exc
            yield _record_from_mapping(obj, source=f"{path}:{line_no}")


def _record_from_mapping(obj: Mapping[str, Any], source: str) -> ConnectionRecord:
    try:
        return ConnectionRecord(
            start=float(obj["start"]),
            car_id=str(obj["car_id"]),
            cell_id=int(obj["cell_id"]),
            carrier=str(obj["carrier"]),
            technology=str(obj["technology"]),
            duration=float(obj["duration"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CDRValidationError(f"{source}: malformed record: {exc}") from exc


def _columns_from_text(
    start: list[str],
    duration: list[str],
    cell_id: list[str],
    car_id: list[str],
    carrier: list[str],
    technology: list[str],
    source: str,
) -> ColumnarCDRBatch:
    """Vectorized numeric parse + dictionary encoding of collected columns.

    ``np.asarray(dtype=...)`` parses string columns in C (correctly
    rounded for float64, so text round-trips are bit-exact), replacing a
    Python ``float()``/``int()`` call per field.
    """
    try:
        start_arr = np.asarray(start, dtype=np.float64)
        duration_arr = np.asarray(duration, dtype=np.float64)
        cell_arr = np.asarray(cell_id, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise CDRValidationError(f"{source}: malformed numeric column: {exc}") from exc
    batch = ColumnarCDRBatch.from_arrays(
        start_arr, duration_arr, cell_arr, car_id, carrier, technology
    )
    _validate_columns(batch, source)
    return batch


def _validate_columns(batch: ColumnarCDRBatch, source: str) -> None:
    """The :class:`ConnectionRecord` invariants, checked as array ops."""
    if bool(np.any(batch.duration < 0)):
        row = int(np.flatnonzero(batch.duration < 0)[0])
        raise CDRValidationError(
            f"{source}: record duration must be non-negative, "
            f"got {batch.duration[row]} at row {row}"
        )
    if "" in batch.car_ids:
        raise CDRValidationError(f"{source}: record car_id must be non-empty")


def _csv_rows_fast(
    lines: list[str], path: str | Path, line_offset: int
) -> list[list[str]]:
    """Split plain CSV lines, falling back to :mod:`csv` when quoted."""
    rows: list[list[str]] = []
    for i, line in enumerate(lines):
        line = line.rstrip("\r\n")
        if not line:
            continue
        if '"' in line:
            parsed = next(iter(csv.reader([line])))
        else:
            parsed = line.split(",")
        if len(parsed) != len(_CSV_FIELDS):
            raise CDRValidationError(
                f"{path}:{line_offset + i}: expected {len(_CSV_FIELDS)} "
                f"fields, got {len(parsed)}"
            )
        rows.append(parsed)
    return rows


def read_columnar_csv(path: str | Path) -> ColumnarCDRBatch:
    """Load a CSV trace block-wise into a columnar batch — no record objects.

    Requires the column order :func:`write_records_csv` produces; the
    line-oriented fast split falls back to the :mod:`csv` parser for
    quoted lines, so anything the writer can emit reads back.  Raises
    :class:`CDRValidationError` on malformed input, like the record
    reader.
    """
    blocks: list[ColumnarCDRBatch] = []
    with _open_text(path, "r") as f:
        header = f.readline()
        fields = tuple(next(iter(csv.reader([header])), [])) if header else ()
        if fields != _CSV_FIELDS:
            if not fields or set(_CSV_FIELDS) - set(fields):
                raise CDRValidationError(
                    f"CSV at {path} is missing required columns {_CSV_FIELDS}"
                )
            # Reordered or extra columns: take the mapped (DictReader) path,
            # still columnar, still no record objects.
            return _read_columnar_csv_mapped(path)
        line_no = 2
        while True:
            lines = f.readlines(_BLOCK_LINES * 64)
            if not lines:
                break
            rows = _csv_rows_fast(lines, path, line_no)
            line_no += len(lines)
            if not rows:
                continue
            columns = list(zip(*rows))
            blocks.append(
                _columns_from_text(
                    list(columns[0]),
                    list(columns[5]),
                    list(columns[2]),
                    list(columns[1]),
                    list(columns[3]),
                    list(columns[4]),
                    str(path),
                )
            )
    return ColumnarCDRBatch.concatenate(blocks)


def _read_columnar_csv_mapped(path: str | Path) -> ColumnarCDRBatch:
    """Column-collecting CSV reader for files with non-canonical column order."""
    columns: dict[str, list[str]] = {name: [] for name in _CSV_FIELDS}
    with _open_text(path, "r") as f:
        for row in csv.DictReader(f):
            try:
                for name in _CSV_FIELDS:
                    value = row[name]
                    if value is None:
                        raise CDRValidationError(
                            f"{path}: short row, missing {name!r}"
                        )
                    columns[name].append(value)
            except KeyError as exc:
                raise CDRValidationError(
                    f"{path}: malformed record: {exc}"
                ) from exc
    return _columns_from_text(
        columns["start"],
        columns["duration"],
        columns["cell_id"],
        columns["car_id"],
        columns["carrier"],
        columns["technology"],
        str(path),
    )


def read_columnar_jsonl(path: str | Path) -> ColumnarCDRBatch:
    """Load a JSONL trace block-wise into a columnar batch — no record objects."""
    start: list[str] = []
    duration: list[str] = []
    cell_id: list[str] = []
    car_id: list[str] = []
    carrier: list[str] = []
    technology: list[str] = []
    blocks: list[ColumnarCDRBatch] = []

    def _flush() -> None:
        if start:
            blocks.append(
                _columns_from_text(
                    start, duration, cell_id, car_id, carrier, technology, str(path)
                )
            )
            for column in (start, duration, cell_id, car_id, carrier, technology):
                column.clear()

    with _open_text(path, "r") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                start.append(str(obj["start"]))
                duration.append(str(obj["duration"]))
                cell_id.append(str(obj["cell_id"]))
                car_id.append(str(obj["car_id"]))
                carrier.append(str(obj["carrier"]))
                technology.append(str(obj["technology"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise CDRValidationError(
                    f"{path}:{line_no}: malformed record: {exc}"
                ) from exc
            if len(start) >= _BLOCK_LINES:
                _flush()
    _flush()
    return ColumnarCDRBatch.concatenate(blocks)


def trace_format(path: str | Path) -> str:
    """Classify a trace path as ``"cdrz"``, ``"jsonl"`` or ``"csv"``.

    Decided by the filename suffix with ``.gz`` stripped; anything that is
    neither ``.cdrz`` nor ``.jsonl`` is treated as CSV, matching the
    writers' historical default.
    """
    stem = _format_stem(path)
    if stem.endswith(".cdrz"):
        return "cdrz"
    if stem.endswith(".jsonl"):
        return "jsonl"
    return "csv"


def read_columnar_auto(path: str | Path) -> ColumnarCDRBatch:
    """Load any supported trace format columnar, without record objects.

    A directory is treated as a sharded ``.cdrz`` trace (the layout
    :func:`repro.cdr.store.write_sharded_cdrz` produces) and concatenated
    in shard order.
    """
    if Path(path).is_dir():
        from repro.cdr.store import read_batch_cdrz, resolve_shards

        return ColumnarCDRBatch.concatenate(
            [read_batch_cdrz(shard) for shard in resolve_shards(path)]
        )
    fmt = trace_format(path)
    if fmt == "cdrz":
        from repro.cdr.store import read_batch_cdrz

        return read_batch_cdrz(path)
    if fmt == "jsonl":
        return read_columnar_jsonl(path)
    return read_columnar_csv(path)


def load_trace(path: str | Path) -> CDRBatch:
    """Load any supported trace into a lazy :class:`CDRBatch`.

    The CLI entry point for analysis commands: ``.cdrz`` files (or shard
    directories) load through the binary store — single files honoring
    their sortedness flag — and text formats through the columnar block
    parsers.  Either way ingest is vectorized and the batch holds only its
    columnar view: :class:`~repro.cdr.records.ConnectionRecord` objects
    are built on the first record access, which the fused engine never
    makes.
    """
    if not Path(path).is_dir() and trace_format(path) == "cdrz":
        from repro.cdr.store import read_cdr_batch

        return read_cdr_batch(path)
    return read_columnar_auto(path).to_batch()


def write_records_daily(
    directory: str | Path,
    records: Iterable[ConnectionRecord],
    compress: bool = True,
) -> dict[int, int]:
    """Partition a trace into one CSV per study day, as CDR feeds arrive.

    Records land in ``<directory>/day-<NNN>.csv[.gz]`` keyed by the day
    their connection *started*.  Returns ``{day: rows written}``.  Input
    order within a day is preserved; days are written in ascending order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    per_day: dict[int, list[ConnectionRecord]] = {}
    for rec in records:
        per_day.setdefault(int(rec.start // 86_400), []).append(rec)
    suffix = ".csv.gz" if compress else ".csv"
    counts: dict[int, int] = {}
    for day in sorted(per_day):
        path = directory / f"day-{day:03d}{suffix}"
        counts[day] = write_records_csv(path, per_day[day])
    return counts


def read_records_daily(directory: str | Path) -> Iterator[ConnectionRecord]:
    """Stream a daily-partitioned trace back in day order.

    Reads every ``day-*.csv``/``day-*.csv.gz`` under ``directory`` sorted by
    filename, yielding records in the same global order
    :func:`write_records_daily` received them (given per-day sorted input).
    """
    directory = Path(directory)
    paths = sorted(
        p
        for p in directory.iterdir()
        if p.name.startswith("day-") and (p.suffix == ".csv" or p.name.endswith(".csv.gz"))
    )
    if not paths:
        raise CDRValidationError(f"no day-*.csv[.gz] files under {directory}")
    for path in paths:
        yield from read_records_csv(path)
