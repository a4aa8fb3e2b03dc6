"""One codec from one schema: the vocabulary every wire body is declared in.

A :class:`Record` declares once which fields fill a body's length-prefixed
parts, each of a :class:`Kind`, and compiles from that declaration, once,
the Python source (``record.source``) of its ``encode``, ``decode``,
``decode_parts`` and ``size`` — the exact encoded length, without
encoding.  Compiled, a coin chunk decodes as cheaply as by hand.  DESIGN.md
("Frame format and message registry") describes the vocabulary and the
loose decoders of format v1.
"""

from __future__ import annotations

import dataclasses
import struct
from collections import namedtuple
from math import prod

from repro.crypto.pedersen import Commitment
from repro.errors import EncodingError
from repro.utils.encoding import decode_length_prefixed, decode_utf8, encode_length_prefixed

__all__ = ["Kind", "Record", "ELEMENT", "COMMITMENT", "SCALAR", "uint", "text", "f64",
           "flag", "raw", "nested", "union", "one", "count", "many"]

_PREFIX = 4  # bytes of length prefix per part
_F64 = struct.Struct(">d")

# ``enc``, ``dec`` and ``size`` are Python expressions compiled into each
# record's codec: ``enc`` turns the value ``{v}`` (a name or an index,
# safe to evaluate twice) into bytes, ``dec`` the part ``{p}`` into a
# value, and ``size`` is the length ``enc`` gives, raising where it would.
# ``{h[i]}`` names ``helpers[i]``; ``group`` is in scope.  A ``fixed`` kind
# encodes every value of one group to one length, so a repeated field is
# sized by its first item.  ``sub``: the record a nested kind carries
# (magic -> record for a union).
Kind = namedtuple("Kind", "label enc dec size fixed sub helpers", defaults=(False, None, ()))

ELEMENT = Kind("element", "{v}.to_bytes()", "group.from_bytes({p})", "len({v}.to_bytes())", True)
COMMITMENT = Kind("element", "{v}.element.to_bytes()", "{h[0]}(group.from_bytes({p}))",
                  "len({v}.element.to_bytes())", True, helpers=(Commitment,))
SCALAR = Kind("scalar", "({v} % group.order).to_bytes(group.scalar_bytes, 'big')",
              "int.from_bytes({p}, 'big')", "group.scalar_bytes", True)


def uint(what: str, limit: int | None = None) -> Kind:
    def length(value):
        if value < 0:
            raise EncodingError(f"{what} must be non-negative")
        return (value.bit_length() + 7) // 8 or 1

    def dec(part):
        value = int.from_bytes(part, "big")
        if value >= limit:
            raise EncodingError(f"{what} {value} is implausibly large")
        return value

    decoded = "int.from_bytes({p}, 'big')" if limit is None else "{h[1]}({p})"
    return Kind("uint", "{v}.to_bytes({h[0]}({v}), 'big')", decoded, "{h[0]}({v})",
                helpers=(length, dec))


def text(what: str) -> Kind:
    def dec(part):
        return decode_utf8(part, what)

    return Kind("text", "{v}.encode()", "{h[0]}({p})", "len({v}.encode())", helpers=(dec,))


def f64(error: str) -> Kind:
    def dec(part):
        if len(part) != 8:
            raise EncodingError(error)
        return _F64.unpack(part)[0]

    return Kind("f64", "{h[0]}({v})", "{h[1]}({p})", "8", True, helpers=(_F64.pack, dec))


def flag(on: bytes, off: bytes, error: str) -> Kind:
    def dec(part):
        if part != on and part != off:
            raise EncodingError(error)
        return part == on

    return Kind("flag", "({h[0]} if {v} else {h[1]})", "{h[2]}({p})",
                "len({h[0]} if {v} else {h[1]})", helpers=(on, off, dec))


def raw(length: int | None = None, error: str = "") -> Kind:
    def dec(part):
        if len(part) != length:
            raise EncodingError(error)
        return part

    decoded = "{p}" if length is None else "{h[0]}({p})"
    return Kind("bytes", "{v}", decoded, "len({v})", helpers=(dec,))


def nested(record: "Record") -> Kind:
    return Kind("record", "{h[0]}({v})", "{h[1]}(group, {p})", "{h[2]}({v})", record.fixed,
                sub=record, helpers=(record.encode, record.decode, record.size))


def union(what: str, *records: "Record") -> Kind:
    by_magic = {record.magic: record for record in records}

    def pick(value):
        for record in records:
            if isinstance(value, record.cls):
                return record
        raise EncodingError(f"not a {what}: {type(value).__name__}")

    def dec(group, part):
        parts = decode_length_prefixed(part)
        if not parts or parts[0] not in by_magic:
            raise EncodingError(f"unknown {what} tag")
        return by_magic[parts[0]].decode_parts(group, parts)

    return Kind("union", "{h[0]}({v}).encode({v})", "{h[1]}(group, {p})",
                "{h[0]}({v}).size({v})", sub=by_magic, helpers=(pick, dec))


_Field = namedtuple("_Field", "name kind role dims least step")


def one(name: str, kind: Kind) -> _Field:
    return _Field(name, kind, "one", (), 0, 1)


def count(name: str, kind: Kind, *, least: int = 1) -> _Field:
    return _Field(name, kind, "count", (), least, 1)


def many(name: str, kind: Kind, *dims: str, least: int = 0, step: int = 1) -> _Field:
    """Without dims: the tail, at least ``least`` parts, a multiple of ``step``."""
    return _Field(name, kind, "many", dims, least, step)


class Record:
    """A body declared once.  ``get`` gives a value's field values (counts
    excluded) and ``build`` makes a value of them; by default the field
    names of ``cls`` (a dataclass) do, else the value is that tuple.
    ``group(value)`` is the group its scalars are encoded in.  Decoding
    raises ``needs`` (formatted with ``got``, the part count) when a record
    of single fields has another part count, or any record fewer than
    ``least`` or a tail out of step; ``"{name} has … fields, expected …"``
    when counts and part count disagree.  Encoding raises ``ragged`` when
    repeated fields disagree on a count they share."""

    def __init__(self, name, *fields, cls=None, get=None, build=None, magic=None,
                 bad_magic=None, group=None, needs="", least=None, ragged=""):
        self.name, self.fields, self.cls, self.magic = name, fields, cls, magic
        flat = all(f.role == "one" for f in fields)
        self.fixed = flat and all(f.kind.fixed for f in fields)
        tail = fields[-1] if fields[-1].role == "many" and not fields[-1].dims else None
        if least is None:
            least = sum(f.role != "many" for f in fields) + (tail.least if tail else 0)
        self.least = least
        env = {"_lp": encode_length_prefixed, "_lpd": decode_length_prefixed, "_magic": magic,
               "EncodingError": EncodingError, "_get": get, "_group": group,
               "_build": build or cls}

        def expr(i, template, **slots):
            helpers = [f"_h{i}_{j}" for j in range(len(fields[i].kind.helpers))]
            env.update(zip(helpers, fields[i].kind.helpers))
            return template.format(h=helpers, **slots)

        def local(i):
            return f"c_{fields[i].name}" if fields[i].role == "count" else f"x{i}"

        # Encode and size: bind the values, take each count from the first
        # repeated field that names it, and refuse fields that disagree.
        valued = [i for i, f in enumerate(fields) if f.role != "count"]
        if get or cls is None:
            values = "_get(obj)" if get else "obj"
        else:
            values = ", ".join(f"obj.{fields[i].name}" for i in valued) + ","
        head = ["group = _group(obj)"] if group else []
        head.append(f"{', '.join(map(local, valued))}, = {values}")
        counted, ragged_if = set(), []
        for i, f in enumerate(fields):
            for axis, dim in enumerate(f.dims):
                if dim not in counted:
                    counted.add(dim)
                    head.append(f"c_{dim} = (len(x{i}[0]) if x{i} else 0)" if axis
                                else f"c_{dim} = len(x{i})")
                    if not axis:
                        continue
                ragged_if.append(f"(x{i} and set(map(len, x{i})) != {{c_{dim}}})" if axis
                                 else f"len(x{i}) != c_{dim}")
        if ragged_if:
            head.append(f"if {' or '.join(ragged_if)}: raise EncodingError({ragged!r})")
        items = ["_magic"] if magic is not None else []
        sizes = [str(_PREFIX + len(magic)) if magic is not None else "0"]
        for i, f in enumerate(fields):
            kind = f.kind
            enc, size = expr(i, kind.enc, v="v"), expr(i, kind.size, v="v")
            loop = f"for r in x{i} for v in r" if len(f.dims) == 2 else f"for v in x{i}"
            if f.role != "many":
                items.append(expr(i, kind.enc, v=local(i)))
                sizes.append(f"{_PREFIX} + {expr(i, kind.size, v=local(i))}")
            elif kind.fixed:
                n = " * ".join(f"c_{d}" for d in f.dims) or f"len(x{i})"
                first = expr(i, kind.size, v=f"x{i}[0]" + "[0]" * (len(f.dims) == 2))
                items.append(f"*[{enc} {loop}]")
                sizes.append(f"({n} and {n} * ({_PREFIX} + {first}))")
            else:
                items.append(f"*[{enc} {loop}]")
                sizes.append(f"sum([{_PREFIX} + {size} {loop}])")
        prelude = "".join(f"\n    {line}" for line in head)
        source = [f"def encode(obj):{prelude}\n    return _lp({', '.join(items)})",
                  f"def size(obj):{prelude}\n    return {' + '.join(sizes)}"]

        # Decode: check the magic and the part count, then fill the fields.
        at = int(magic is not None)
        bad_magic = bad_magic or f"bad or missing magic (expected {magic!r})"
        need = f"raise EncodingError({needs!r}.format(got=n))"
        lead = next((i for i, f in enumerate(fields) if f.role == "many"), len(fields))
        body = [f"if not parts or parts[0] != _magic: raise EncodingError({bad_magic!r})"] * at
        body.append(f"n = len(parts) - {at}")
        body.append(f"if n != {len(fields)}: {need}" if flat else f"if n < {least}: {need}")
        body += [f"{local(i)} = {expr(i, fields[i].kind.dec, p=f'parts[{at + i}]')}"
                 for i in range(lead)]
        body.append(f"i = {at + lead}")
        if tail is not None:
            body.append(f"if (len(parts) - i) % {tail.step}: {need}")
        elif not flat:
            spans = [" * ".join(f"c_{d}" for d in f.dims) if f.role == "many" else "1"
                     for f in fields[lead:]]
            small = [f"c_{f.name} < {f.least}" for f in fields if f.role == "count" and f.least]
            body.append(f"e = {lead} + {' + '.join(spans)}")
            body.append(f"if {' or '.join(['n != e'] + small)}: "
                        f"raise EncodingError({name!r} + f' has {{n}} fields, expected {{e}}')")
        for i, f in enumerate(fields[lead:], lead):
            if f.role == "one":
                body += [f"x{i} = {expr(i, f.kind.dec, p='parts[i]')}", "i += 1"]
                continue
            stop = "i + " + " * ".join(f"c_{d}" for d in f.dims) if f.dims else "len(parts)"
            body += [f"y = [{expr(i, f.kind.dec, p='p')} for p in parts[i:{stop}]]",
                     f"i = {stop}"]
            if len(f.dims) == 2:  # cut the items into rows
                lanes = f"c_{f.dims[1]}"
                y = f"[tuple(y[k:k + {lanes}]) for k in range(0, len(y), {lanes})]"
            body.append(f"x{i} = tuple({y if len(f.dims) == 2 else 'y'})")
        names = [fields[i].name for i in valued]
        keywords = not build and cls and names != [f.name for f in dataclasses.fields(cls)]
        args = ", ".join(f"{n}=x{i}" if keywords else f"x{i}" for n, i in zip(names, valued))
        body.append(f"return _build({args})" if env["_build"] else f"return ({args},)")
        lines = "".join(f"\n    {line}" for line in body)
        source += [f"def decode_parts(group, parts):{lines}",
                   "def decode(group, data):\n    return decode_parts(group, _lpd(data))"]
        self.source = "\n\n".join(source)
        exec(compile(self.source, f"<record {name}>", "exec"), env)  # noqa: S102
        self.encode, self.size = env["encode"], env["size"]
        self.decode, self.decode_parts = env["decode"], env["decode_parts"]

    def layout(self, parts: list[bytes]) -> list:
        """``(field, start, stop)`` part spans of a body, its counts read as
        plain integers and nothing else decoded.  The parts fit the shape
        when the last span stops at ``len(parts)``."""
        spans, counts, i = [], {}, int(self.magic is not None)
        for field in self.fields:
            if field.role == "count":
                counts[field.name] = int.from_bytes(parts[i], "big") if i < len(parts) else 0
            if field.role != "many":
                spans.append((field, i, i + 1))
            else:
                spans.append((field, i, i + prod(counts[d] for d in field.dims) if field.dims
                              else max(i, len(parts))))
            i = spans[-1][2]
        return spans
