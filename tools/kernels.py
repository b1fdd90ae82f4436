"""Run the error-budget table once per OpenBLAS kernel and compare the rows.

    python3 tools/kernels.py [TABLE SETTINGS...]

Run from anywhere in a checkout; the package is imported from ``src/``.
Every argument goes to ``entcert table`` (for example ``--n-max 1``).  Each
kernel runs in a fresh process with ``OPENBLAS_CORETYPE`` set in that
child's environment alone: on an x86-64 host with AVX2 the native kernel,
then SkylakeX (where the host has AVX-512), Haswell and Sandybridge;
elsewhere the native kernel alone.  The output lists each row's value,
solver status and ``verified`` flag per kernel, the largest |delta value|
against native, and every status that differs from native.  The exit code
is 1 when a child fails or a status differs, and 0 otherwise.
"""

import csv
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def x86_flags() -> set:
    """The CPU flags /proc/cpuinfo lists on an x86-64 host; empty elsewhere
    or where it cannot be read."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return set()
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in cpuinfo.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


def x86_with_avx2() -> bool:
    return "avx2" in x86_flags()


def host_kernels() -> tuple:
    """native, then the OpenBLAS core types this host can run."""
    flags = x86_flags()
    if "avx2" not in flags:
        return ("native",)
    return ("native",) + (("SkylakeX",) if "avx512f" in flags else ()) + ("Haswell", "Sandybridge")


def run_table(kernel: str, args: list, out: Path) -> list:
    """The rows of `entcert table --out out` run with the kernel, as
    (row, epsilon, value, status, verified) strings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    cmd = [sys.executable, "-m", "entcert.cli", "table", "--out", str(out), *args]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    with open(out, newline="") as fh:
        return list(csv.reader(fh))[1:]


def main(argv=None, kernels=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    kernels = host_kernels() if kernels is None else tuple(kernels)
    tables = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kernel in kernels:
            try:
                tables[kernel] = run_table(kernel, args, Path(tmp) / f"{kernel}.csv")
            except subprocess.CalledProcessError as err:
                print(f"{kernel}: entcert table exited with {err.returncode}")
                return 1
    native = tables[kernels[0]]
    print("row epsilon " + " ".join(f"{k}:value/status/verified" for k in kernels) + " max|dvalue|")
    largest, mismatches = 0.0, []
    for i, (row, eps, *_) in enumerate(native):
        cells, delta = [], 0.0
        for kernel in kernels:
            _, _, value, status, verified = tables[kernel][i]
            cells.append(f"{value}/{status}/{verified}")
            delta = max(delta, abs(float(value) - float(native[i][2])))
            if status != native[i][3]:
                mismatches.append(f"{row} {eps}: {kernel} {status} against {kernels[0]} {native[i][3]}")
        largest = max(largest, delta)
        print(f"{row} {eps or '-'} " + " ".join(cells) + f" {delta:.3g}")
    print(f"largest |dvalue| against {kernels[0]}: {largest:.3g}")
    print("status mismatches: " + ("; ".join(mismatches) if mismatches else "none"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
