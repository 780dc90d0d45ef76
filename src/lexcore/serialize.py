"""CSV/JSON emission for metric results and configs.

CSV files carry a header row (``x,y`` for series, ``key,value`` for
mappings) and full-precision floats via ``repr``, so identical inputs
always produce byte-identical output.  JSON documents carry a
``schema`` field of the form ``lexcore.<kind>/<version>``.  A config
or result dataclass is written from its own fields by
:func:`json_fields`, so its fields are its JSON keys.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Iterator, Mapping

if TYPE_CHECKING:
    from .metrics import MetricSeries, OverlapReport, TransitionPartition

SCHEMA_PREFIX = "lexcore"
SCHEMA_VERSION = 1


def _schema(kind: str) -> str:
    return f"{SCHEMA_PREFIX}.{kind}/{SCHEMA_VERSION}"


def json_fields(obj: Any) -> Any:
    """A dataclass as a JSON object of its fields, in field order, and each field's value as JSON.

    A nested dataclass becomes an object, an enum-keyed map is keyed by
    name, a letter set becomes one sorted string and a tuple a list.
    """
    if is_dataclass(obj):
        return {f.name: json_fields(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Mapping):
        return {key.name if isinstance(key, Enum) else key: json_fields(v) for key, v in obj.items()}
    if isinstance(obj, frozenset):
        return "".join(sorted(obj))
    if isinstance(obj, tuple):
        return [json_fields(v) for v in obj]
    return obj


def fmt(value: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(value))


def series_to_csv(series: MetricSeries) -> str:
    lines = ["x,y"] + [f"{x},{fmt(y)}" for x, y in series.points]
    return "\n".join(lines) + "\n"


def series_to_json(series: MetricSeries) -> dict:
    return {"schema": _schema("series"), **json_fields(series)}


def mapping_to_csv(items: Mapping[str, float]) -> str:
    lines = ["key,value"] + [f"{k},{fmt(v)}" for k, v in items.items()]
    return "\n".join(lines) + "\n"


def mapping_to_json(kind: str, items: Mapping[str, float]) -> dict:
    return {"schema": _schema(kind), "values": dict(items)}


def overlap_to_csv(report: OverlapReport) -> str:
    items = {
        "size_a": report.size_a,
        "size_b": report.size_b,
        "shared": report.shared,
        "only_a": len(report.only_a),
        "only_b": len(report.only_b),
        "symmetric_difference": len(report.only_a) + len(report.only_b),
        "overlap_pct": fmt(report.overlap_pct),
        "jaccard": fmt(report.jaccard),
    }
    lines = ["key,value"] + [f"{k},{v}" for k, v in items.items()]
    return "\n".join(lines) + "\n"


def overlap_to_json(report: OverlapReport) -> dict:
    return {"schema": _schema("overlap"), **json_fields(report)}


def partition_to_json(partition: TransitionPartition) -> dict:
    return {
        "schema": _schema("transition"),
        "both": sorted(partition.both),
        "only_old": sorted(partition.only_old),
        "only_new": sorted(partition.only_new),
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A new file beside ``path``, renamed over it when the block ends.

    Readers never see a torn file.  The temp name is unique to this
    writer, the file takes the mode the umask gives, and it is removed
    when the write or the rename fails.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through :func:`replacing`."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))
