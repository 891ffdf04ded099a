"""``repro.store`` — the packed columnar result store.

The canonical result format of the reproduction: fixed-point packed numpy
record columns (:data:`PACKED_DTYPE`, 56 bytes/row vs the text format's
118), per-couple segments behind a versioned header, an append-friendly
writer for the checkpointed producer, lossless text converters, and the
vectorized check -> merge -> matrix pipeline over Section 5.2's rules
(:mod:`repro.validation`) — the one result path; text enters it through
:func:`segment_from_text`.

See ``docs/resultstore.md`` for the on-disk layout and conversion
guarantees; the ``results_ingest`` / ``results_reduce`` workloads of
``benchmarks/e2e`` measure the pipeline.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".convert": [
        "render_lines", "segment_from_text",
        "segment_to_text", "store_to_text", "text_to_store",
    ],
    ".format": [
        "PACKED_DTYPE", "ROW_BYTES", "SEGMENT_OVERHEAD_BYTES",
        "STORE_MAGIC", "STORE_VERSION", "ColumnarSegment",
        "ResultStore", "StoreWriter", "iter_segments", "pack_records",
        "read_store", "rollback_partial_store", "unpack_records",
        "write_store",
    ],
    ".pipeline": [
        "check_segment", "check_store", "energy_matrix",
        "merge_couple_store", "merge_segments", "position_energy_maps",
    ],
})
