"""Checksum-verified retrieval of public Parallel Workloads Archive logs.

Real traces come from the archive as gzipped SWF files; this module
downloads them **only** when the expected SHA-256 is known, and refuses
anything whose bytes do not match.  Two sources of expectations:

* :data:`TRACE_REGISTRY` — the public logs the repo's experiments name
  (archive URL + size class).  Registry entries whose checksum is
  ``None`` *must* be given one explicitly (``repro traces fetch NAME
  --sha256 HEX``): we do not bake in hashes we could not verify from
  this offline build environment, and we never accept an unverified
  download.
* an explicit ``sha256=`` argument — for logs outside the registry.

CI never calls this module: the committed fixture
``tests/data/mini.swf`` covers every test and the smoke jobs.  The
network touch-point is isolated here (and exempt from nothing — the
module is in R002's determinism scope, so no clocks/RNG; urllib is
I/O, which R002 does not police).  ``urllib.request`` is imported inside
:func:`fetch_trace`, so importing this module (the replay path does, for
:func:`sha256_file`) loads no network stack.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = ["TraceFetchError", "TraceSource", "TRACE_REGISTRY",
           "sha256_file", "verify_sha256", "fetch_trace"]


class TraceFetchError(RuntimeError):
    """Download refused or failed: unknown trace, missing checksum,
    checksum mismatch, or network error.  Never leaves a partial or
    unverified file at the destination."""


@dataclass(frozen=True)
class TraceSource:
    """One public log: where it lives and what its bytes must hash to.

    ``sha256`` is the digest of the *final* file written to disk (the
    decompressed SWF when ``gzipped``), so verification covers exactly
    what the parser will read.
    """

    name: str
    url: str
    description: str
    gzipped: bool = True
    sha256: Optional[str] = None


#: Public logs the experiments reference.  Checksums are intentionally
#: unset — this build environment is offline, and an unverifiable hash
#: is worse than none — so a fetch requires an explicit ``--sha256``
#: obtained from a trusted channel (the archive publishes them).
TRACE_REGISTRY: Dict[str, TraceSource] = {
    "hpc2n-2002": TraceSource(
        name="hpc2n-2002",
        url=("https://www.cs.huji.ac.il/labs/parallel/workload/"
             "l_hpc2n/HPC2N-2002-2.2-cln.swf.gz"),
        description="HPC2N Linux cluster, 240 procs, 2002-2006 "
                    "(~200k jobs; cleaned v2.2 log)",
    ),
    "sdsc-blue-2000": TraceSource(
        name="sdsc-blue-2000",
        url=("https://www.cs.huji.ac.il/labs/parallel/workload/"
             "l_sdsc_blue/SDSC-BLUE-2000-4.2-cln.swf.gz"),
        description="SDSC Blue Horizon, 1152 procs, 2000-2003 "
                    "(~240k jobs; cleaned v4.2 log)",
    ),
}


def sha256_file(path: Union[str, Path]) -> str:
    """Hex SHA-256 of a file's bytes, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_sha256(path: Union[str, Path], expected: str) -> None:
    """Raise :class:`TraceFetchError` unless ``path`` hashes to
    ``expected`` (case-insensitive hex)."""
    actual = sha256_file(path)
    if actual.lower() != expected.lower():
        raise TraceFetchError(
            f"{path}: SHA-256 mismatch — expected {expected.lower()}, "
            f"got {actual}; refusing the file")


def fetch_trace(name_or_url: str, dest: Union[str, Path], *,
                sha256: Optional[str] = None,
                timeout: float = 60.0) -> Path:
    """Download a trace to ``dest`` and verify it, or die trying.

    ``name_or_url`` is a :data:`TRACE_REGISTRY` key or a raw URL.  The
    checksum is mandatory: from the registry entry when it has one,
    else from ``sha256=`` — with neither, the fetch is refused before
    any network traffic.  Gzipped sources are decompressed; the hash is
    checked against the final on-disk bytes, and a mismatching file is
    deleted, not left behind.  Returns the destination path.
    """
    source = TRACE_REGISTRY.get(name_or_url.lower())
    if source is not None:
        url, gzipped = source.url, source.gzipped
        expected = sha256 or source.sha256
    elif "://" in name_or_url:
        url, gzipped = name_or_url, name_or_url.endswith(".gz")
        expected = sha256
    else:
        known = ", ".join(sorted(TRACE_REGISTRY))
        raise TraceFetchError(f"unknown trace {name_or_url!r} "
                              f"(registry: {known}) and not a URL")
    if not expected:
        raise TraceFetchError(
            f"no SHA-256 known for {name_or_url!r} — pass one "
            f"explicitly (repro traces fetch ... --sha256 HEX); "
            f"unverified downloads are refused")

    # Imported here, not at module level: the trace-replay path imports
    # this module for sha256_file, and urllib.request pulls in http.client
    # and email, which every CLI and pool-worker start-up would then pay.
    import urllib.request

    dest_path = Path(dest)
    dest_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            raw = resp.read()
    except OSError as exc:
        raise TraceFetchError(f"download of {url} failed: {exc}") from exc
    if gzipped:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise TraceFetchError(
                f"{url}: gzip decompression failed: {exc}") from exc

    tmp = dest_path.with_name(dest_path.name + ".part")
    tmp.write_bytes(raw)
    try:
        verify_sha256(tmp, expected)
    except TraceFetchError:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(dest_path)
    return dest_path
