"""Unit conventions shared across the package.

All prefixes are decimal: K = 1e3, M = 1e6, G = 1e9. Storage is counted in
bytes-derived units (MB, GB, PB), link rates in bits per second (Kbps, Mbps).
Keeping both decimal is what makes a sustained 1 Mbps stream deliver exactly
450 MB per hour, a constant the capacity model leans on.
"""

BITS_PER_BYTE = 8
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

KILO = 1e3
MEGA = 1e6
GIGA = 1e9

GB_PER_PB = 1e6

# MB moved in one hour by a sustained 1 Mbps stream (= 450.0).
MB_PER_MBPS_HOUR = (MEGA / BITS_PER_BYTE) * SECONDS_PER_HOUR / MEGA


def kbps_to_mbps(kbps: float) -> float:
    return kbps / KILO


def kbps_to_bytes_per_s(kbps: float) -> float:
    return kbps * KILO / BITS_PER_BYTE


def mbps_to_mb_per_s(mbps: float) -> float:
    return mbps / BITS_PER_BYTE


def kbps_to_mb_per_s(kbps: float) -> float:
    return kbps * KILO / BITS_PER_BYTE / MEGA
