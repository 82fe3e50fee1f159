"""HyperLogLog distinct counting (``relational.approx_distinct_users``):
each batch builds one sketch locally and a small reduce merges them,
the sketch-shaped aggregation pattern from ray_guide 'Aggregation at
scale'."""

from __future__ import annotations


class HyperLogLog:
    """HyperLogLog distinct-count sketch (Flajolet et al., AofA 2007),
    mergeable by per-register max — the approximate counterpart of the
    exact ``relational.distinct_user_count`` (its verifier). ``2^p``
    one-byte registers bound sketch size regardless of cardinality;
    standard error ≈ 1.04/sqrt(2^p) (~1.6% at p=12). Deterministic
    md5-derived 64-bit hash, so runs reproduce bit-identically.

    Small-range correction: linear counting when the raw estimate is
    below 2.5·m and empty registers remain (the original paper's
    regime switch); no large-range correction is needed with 64-bit
    hashes."""

    def __init__(self, p: int = 12):
        self.p = p
        self.m = 1 << p
        self.registers = bytearray(self.m)

    def add(self, item) -> None:
        import hashlib

        h = int.from_bytes(
            hashlib.md5(str(item).encode("utf-8")).digest()[:8], "big"
        )
        idx = h >> (64 - self.p)
        rest = h << self.p & ((1 << 64) - 1)
        # rank = leading zeros of the remaining 64-p bits, +1
        rank = 1
        bit = 1 << 63
        while rank <= 64 - self.p and not (rest & bit):
            rest <<= 1
            rank += 1
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        out = HyperLogLog(self.p)
        out.registers = bytearray(
            max(a, b) for a, b in zip(self.registers, other.registers)
        )
        return out

    def estimate(self) -> float:
        import math

        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        raw = alpha * m * m / sum(2.0 ** -r for r in self.registers)
        zeros = self.registers.count(0)
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def to_bytes(self) -> bytes:
        return bytes(self.registers)

    @classmethod
    def from_bytes(cls, data: bytes, p: int = 12) -> "HyperLogLog":
        out = cls(p)
        out.registers = bytearray(data)
        return out
