"""Columnar row representation: a decode cache beside the Table-I XML.

The paper stores "the content of the recorded provenance events as XML"
(Table I).  Parsing that XML is the dominant cost of every read, and the
event logs are naturally columnar (each (CLASS, record-type) pair has a
fixed attribute set), so alongside the XML column the SQLite backend
persists a compact typed **``cols`` payload** per row:

``{"v": 1, "t": type, "ts": int, "a": {name: value}, "s": src, "g": tgt,
"x": crc32(xml)}``

serialized as minified JSON with sorted keys.  Nothing queries it: SQL
selects rows only by Table I's physical columns (the APPID of a trace),
and the payload just lets the selected rows skip the XML parse.

**XML stays the interchange and differential oracle format.**  The
``cols`` payload is a cache of the XML decode, never a second source of
truth:

- :meth:`ColumnarCodec.encode_cols` refuses (returns ``None``) for any
  row where the columnar decode could diverge from the ElementTree
  decode — non-strip-stable text, carriage returns, invalid XML
  characters, non-canonical names, boolean timestamps, out-of-int64
  integers — so such rows simply keep taking the XML path,
- :meth:`ColumnarCodec.decode_cols` carries the attribute values as
  *wire text* through the current model's coercers (the same
  ``from_wire`` table the XML decoders use), so typing, type errors, and
  model-revision changes behave identically on both paths,
- a CRC of the XML column is embedded in the payload; any at-rest
  tampering of the XML invalidates the columnar fast path and the row
  falls back to the XML decode — which raises the same
  :class:`~repro.errors.CodecError` it always did.
"""

from __future__ import annotations

import json
import re
import zlib
from typing import Callable, Dict, FrozenSet, Optional

from repro.errors import CodecError
from repro.model.attributes import AttributeValue
from repro.model.records import (
    ProvenanceRecord,
    RecordClass,
    RelationRecord,
    record_from_parts,
)
from repro.model.schema import ProvenanceDataModel
from repro.store.xmlcodec import (
    StoredRow,
    XmlCodec,
    _attribute_to_wire,
    _INVALID_XML_CHAR_RE,
    _NAME,
    _RESERVED,
)

COLS_VERSION = 1

# Tag names the columnar payload claims — the same conservative ASCII
# subset the compiled XML codec claims, so a cols-bearing row is always a
# row the canonical encoders could have produced.
_SAFE_NAME_RE = re.compile(rf"{_NAME}\Z")

# Payload integers stay within int64, the range every JSON reader
# (SQLite's included) takes back exactly; rows holding larger values are
# simply not encoded.
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def _crc(xml: str) -> Optional[int]:
    try:
        return zlib.crc32(xml.encode("utf-8")) & 0xFFFFFFFF
    except UnicodeEncodeError:
        return None


def _wire_stable(text: str) -> bool:
    """Whether the XML decode would hand *text* back unchanged.

    Element text is stripped after line-ending normalization, so leading
    or trailing whitespace and any ``\\r`` make the columnar copy diverge
    from what :func:`~repro.store.xmlcodec.decode_row` yields.
    """
    return "\r" not in text and text == text.strip()


class ColumnarCodec:
    """Encode/decode the ``cols`` payload for one data model.

    Like :class:`~repro.store.xmlcodec.XmlCodec`, one instance lives as
    long as its store and compiles per-(CLASS, record-type) coercer
    tables lazily, invalidating them when the model's revision moves.
    """

    def __init__(self, model: Optional[ProvenanceDataModel] = None) -> None:
        self.model = model
        self._coercers: Dict[str, Dict[str, Callable[[str], object]]] = {}
        self._model_revision = self._revision()
        # Canonical re-encoder for verify_xml (verbatim/backfill rows).
        self._xml = XmlCodec(model)
        #: rows encoded / refused (regression metrics).
        self.encoded = 0
        self.encode_skips = 0
        #: rows decoded columnar / handed back to the XML path.
        self.cols_decodes = 0
        self.cols_rejects = 0

    def _revision(self) -> int:
        if self.model is None:
            return 0
        return getattr(self.model, "revision", 0)

    def _check_revision(self) -> None:
        current = self._revision()
        if current != self._model_revision:
            self._coercers.clear()
            self._model_revision = current

    # -- encoding ------------------------------------------------------------

    def encode_cols(
        self,
        row: StoredRow,
        record: ProvenanceRecord,
        verify_xml: bool = False,
    ) -> Optional[str]:
        """The ``cols`` payload for *(row, record)*, or ``None``.

        ``None`` means "this row must keep taking the XML decode path" —
        either because the columnar copy could diverge from the XML
        decode, or because the XML decode would raise and the columnar
        path must not mask that error.

        Args:
            verify_xml: byte-compare a canonical re-encode of *record*
                against ``row.xml`` and refuse on mismatch.  Required on
                the verbatim-row path (``append_row``/backfill), where the
                XML was not produced by this store's encoder; the normal
                append path skips it because the row is canonical by
                construction.
        """
        if type(record.timestamp) is not int or not (
            _INT64_MIN <= record.timestamp <= _INT64_MAX
        ):
            # A bool (or huge) timestamp decodes differently — or raises —
            # on the XML path; don't mask it.
            self.encode_skips += 1
            return None
        if _SAFE_NAME_RE.match(record.entity_type) is None:
            self.encode_skips += 1
            return None
        if not _wire_stable(record.app_id):
            self.encode_skips += 1
            return None
        payload: Dict[str, object] = {
            "v": COLS_VERSION,
            "t": record.entity_type,
            "ts": record.timestamp,
        }
        if isinstance(record, RelationRecord):
            if not _wire_stable(record.source_id) or not _wire_stable(
                record.target_id
            ):
                self.encode_skips += 1
                return None
            payload["s"] = record.source_id
            payload["g"] = record.target_id
        attrs: Dict[str, AttributeValue] = {}
        for name, value in record._attributes:
            if _SAFE_NAME_RE.match(name) is None or name in _RESERVED:
                self.encode_skips += 1
                return None
            if not isinstance(value, (str, int, float, bool)):
                self.encode_skips += 1
                return None
            if isinstance(value, int) and not isinstance(value, bool):
                if not (_INT64_MIN <= value <= _INT64_MAX):
                    self.encode_skips += 1
                    return None
            if not _wire_stable(_attribute_to_wire(value)):
                self.encode_skips += 1
                return None
            attrs[name] = value
        payload["a"] = attrs
        if _INVALID_XML_CHAR_RE.search(row.xml):
            # The XML decode raises "malformed XML" on these rows; the
            # columnar path must not silently succeed where it fails.
            self.encode_skips += 1
            return None
        if verify_xml:
            try:
                canonical = self._xml.encode_record_xml(record)
            except Exception:
                self.encode_skips += 1
                return None
            if canonical != row.xml:
                self.encode_skips += 1
                return None
        crc = _crc(row.xml)
        if crc is None:
            self.encode_skips += 1
            return None
        payload["x"] = crc
        try:
            encoded = json.dumps(
                payload,
                separators=(",", ":"),
                sort_keys=True,
                allow_nan=False,
            )
        except (TypeError, ValueError):
            # Non-finite floats, exotic attribute objects.
            self.encode_skips += 1
            return None
        self.encoded += 1
        return encoded

    # -- decoding ------------------------------------------------------------

    def _coercers_for(
        self, record_class: RecordClass, entity_type: str
    ) -> Dict[str, Callable[[str], object]]:
        if record_class is RecordClass.RELATION or self.model is None:
            return {}
        cached = self._coercers.get(entity_type)
        if cached is None:
            cached = {}
            if self.model.has_node_type(entity_type):
                for spec in self.model.node_type(entity_type).attributes:
                    cached[spec.name] = spec.type.from_wire
            self._coercers[entity_type] = cached
        return cached

    def decode_cols(
        self,
        row: StoredRow,
        cols: str,
        projection: Optional[FrozenSet[str]] = None,
    ) -> Optional[ProvenanceRecord]:
        """Materialize a record from a row's ``cols`` payload.

        Returns ``None`` when the payload is unusable (wrong version,
        malformed, or its CRC no longer matches the XML column — i.e. the
        XML was modified after the payload was written); callers fall
        back to the XML decode, which reports tampering exactly as it
        always did.  Typed attribute coercion errors
        (:class:`~repro.errors.SchemaViolation`) propagate just as they
        do from the XML decoders.

        Args:
            projection: when given, only attributes named in it are
                materialized — the lazy-projection sweep path.  Class,
                type, timestamp, and relation endpoints always decode.
        """
        self._check_revision()
        try:
            payload = json.loads(cols)
        except ValueError:
            self.cols_rejects += 1
            return None
        if not isinstance(payload, dict) or payload.get("v") != COLS_VERSION:
            self.cols_rejects += 1
            return None
        if payload.get("x") != _crc(row.xml):
            self.cols_rejects += 1
            return None
        entity_type = payload.get("t")
        timestamp = payload.get("ts")
        raw_attrs = payload.get("a")
        source_id = payload.get("s", "")
        target_id = payload.get("g", "")
        if (
            not isinstance(entity_type, str)
            or type(timestamp) is not int
            or not isinstance(raw_attrs, dict)
            or not isinstance(source_id, str)
            or not isinstance(target_id, str)
        ):
            self.cols_rejects += 1
            return None
        coercers = self._coercers_for(row.record_class, entity_type)
        attributes: Dict[str, AttributeValue] = {}
        for name, value in raw_attrs.items():
            if projection is not None and name not in projection:
                continue
            # Wire-transport: the payload value round-trips through the
            # same wire text + coercer the XML decode uses, so both paths
            # agree on types (and on type errors) by construction.
            wire = _attribute_to_wire(value)
            coercer = coercers.get(name)
            attributes[name] = wire if coercer is None else coercer(wire)
        try:
            record = record_from_parts(
                record_class=row.record_class,
                record_id=row.record_id,
                app_id=row.app_id,
                entity_type=entity_type,
                timestamp=timestamp,
                attributes=attributes,
                source_id=source_id,
                target_id=target_id,
            )
        except Exception as exc:
            raise CodecError(f"row {row.record_id}: {exc}") from exc
        self.cols_decodes += 1
        return record
