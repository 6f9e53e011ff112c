"""Call Detail Record (CDR) data model.

The paper's input is anonymized, aggregated radio-level CDRs: for each
connection, which car connected to which cell on which carrier, when and for
how long — but not how many bytes moved (Section 3).  This package defines
that record type, batch containers with validation, CSV/JSONL round-trip,
the binary columnar ``.cdrz`` store with zero-copy load, and keyed
anonymization of car identifiers.
"""

from repro.cdr.anonymize import Anonymizer
from repro.cdr.columnar import ColumnarCDRBatch, is_record_sorted
from repro.cdr.errors import CDRValidationError, ReproError
from repro.cdr.io import (
    load_trace,
    read_columnar_auto,
    read_columnar_csv,
    read_columnar_jsonl,
    read_records_csv,
    read_records_daily,
    read_records_jsonl,
    trace_format,
    write_records_csv,
    write_records_daily,
    write_records_jsonl,
)
from repro.cdr.quality import QualityReport, assess_quality
from repro.cdr.records import (
    CDRBatch,
    ConnectionRecord,
    RecordConstructionCounter,
    count_record_constructions,
)
from repro.cdr.store import (
    CDRZ_SUFFIX,
    SCHEMA_VERSION,
    CdrzHeader,
    CdrzInfo,
    CdrzMemberInfo,
    inspect_cdrz,
    iter_cdrz_chunks,
    read_batch_cdrz,
    read_cdr_batch,
    read_cdrz,
    resolve_shards,
    write_batch_cdrz,
    write_sharded_cdrz,
)
from repro.cdr.validate import TraceValidator, ValidationReport

__all__ = [
    "Anonymizer",
    "CDRBatch",
    "CDRValidationError",
    "CDRZ_SUFFIX",
    "CdrzHeader",
    "CdrzInfo",
    "CdrzMemberInfo",
    "ColumnarCDRBatch",
    "ConnectionRecord",
    "QualityReport",
    "RecordConstructionCounter",
    "SCHEMA_VERSION",
    "TraceValidator",
    "ValidationReport",
    "assess_quality",
    "count_record_constructions",
    "inspect_cdrz",
    "is_record_sorted",
    "iter_cdrz_chunks",
    "load_trace",
    "read_batch_cdrz",
    "read_cdr_batch",
    "read_cdrz",
    "read_columnar_auto",
    "read_columnar_csv",
    "read_columnar_jsonl",
    "read_records_csv",
    "read_records_daily",
    "read_records_jsonl",
    "resolve_shards",
    "ReproError",
    "trace_format",
    "write_batch_cdrz",
    "write_records_csv",
    "write_records_daily",
    "write_records_jsonl",
    "write_sharded_cdrz",
]
