"""cffi build script and runtime loader for the native GF(2^m) kernel.

Two ways to get the compiled extension:

* **Install time** — ``pip install .[native]`` runs this module through the
  ``cffi_modules`` hook in ``setup.py``, which builds
  ``repro.backends.native._gf2m_native`` into the installed package.
* **Import time** — when the project runs from a source tree (the test and
  benchmark configuration), :func:`extension_module` compiles the kernel
  once into the shared artifact cache (``~/.cache/gf2m-repro/native``,
  ``$GF2M_REPRO_CACHE_DIR`` aware) keyed by a hash of the source, and loads
  it from there on every later run.

Both paths need a C compiler and :mod:`cffi`; every failure is collapsed
into an :class:`ImportError` whose message says how to fix it, so the
registry can degrade to the interpreted tiers cleanly.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import tempfile
from pathlib import Path

import cffi

_MODULE_NAME = "repro.backends.native._gf2m_native"

_CDEF = """
typedef struct {
    int m;
    int nw;
    int fold_n;
    int nterms;
    const int32_t *terms;
} gf2m_field;
typedef struct {
    const int32_t *code;
    int ninstr;
    const uint64_t *tables;
    uint64_t *regs;
    int32_t inputs[6];
    int32_t outputs[4];
} gf2m_step_program;
typedef struct {
    int route;
    int nstate;
    const uint64_t *scalars;
    int scalar_words;
    int teeth;
    int columns;
    const int8_t *digits;
    const uint64_t *points;
    const uint64_t *points_y;
} gf2m_step_data;
typedef struct {
    int width;
    int mu;
    int64_t t_w, t_2;
    int64_t e0, e1, f;
    int64_t threshold;
    int64_t gate;
} gf2m_tau_recoding;
int gf2m_has_clmul(void);
void gf2m_mul_batch(const gf2m_field *f, const uint64_t *a, const uint64_t *b,
                    uint64_t *out, long count);
void gf2m_square_batch(const gf2m_field *f, const uint64_t *values,
                       uint64_t *out, long count);
long gf2m_inverse_batch(const gf2m_field *f, const uint64_t *values,
                        uint64_t *out, long count, uint64_t *zeros);
void gf2m_run_program(const gf2m_field *f, const int32_t *code, int ninstr,
                      uint64_t *regs, long count, const uint64_t *tables,
                      const uint64_t *masks, long lane_words);
void gf2m_run_steps(const gf2m_field *f, const gf2m_step_program *progs,
                    const int32_t *events, int nevents, long count,
                    const gf2m_step_data *data, uint64_t *state, uint64_t *work);
long gf2m_tau_recode(const gf2m_tau_recoding *c, const uint32_t *residues,
                     int limbs, long count, int8_t *digits, uint8_t *occupied,
                     long positions);
"""


def _kernel_source() -> str:
    return (Path(__file__).with_name("_kernel.c")).read_text(encoding="utf-8")


def _make_ffibuilder() -> cffi.FFI:
    builder = cffi.FFI()
    builder.cdef(_CDEF)
    # -g0 drops the debug info Python's own CFLAGS ask for: nothing reads it
    # at run time, and it is ~10% of the cold first-use build, which every
    # fresh cache pays (the sanitizer test builds its own -g copy).
    builder.set_source(_MODULE_NAME, _kernel_source(), extra_compile_args=["-O2", "-g0"])
    return builder


# Entry point consumed by setup.py's ``cffi_modules`` hook.
ffibuilder = _make_ffibuilder()


def _cache_dir() -> Path:
    from ...pipeline.store import default_cache_root

    return default_cache_root() / "native"


def _source_key() -> str:
    payload = "\n".join(
        [
            _CDEF,
            _kernel_source(),
            cffi.__version__,
            "cp%d%d" % sys.version_info[:2],
        ]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _compile_into_cache(target: Path) -> None:
    """Build the extension in a scratch dir, then atomically publish it."""
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="build-", dir=str(target.parent))
    try:
        built = ffibuilder.compile(tmpdir=scratch, verbose=False)
        os.replace(built, target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _load_from_path(path: Path):
    loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, str(path), loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def extension_module():
    """Return the compiled kernel module, building it on first use.

    Raises :class:`ImportError` when no prebuilt extension exists and the
    environment cannot compile one (no C compiler, unwritable cache, ...).
    """
    try:  # an installed wheel ships the extension next to this file
        from . import _gf2m_native  # type: ignore[attr-defined]

        return _gf2m_native
    except ImportError:
        pass

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = _cache_dir() / f"_gf2m_native.{_source_key()}{suffix}"
    try:
        if not target.exists():
            _compile_into_cache(target)
        return _load_from_path(target)
    except Exception as error:
        raise ImportError(
            "the native backend could not build its C extension "
            f"({error.__class__.__name__}: {error}); install a C compiler "
            "and cffi (pip install .[native]) or select another backend"
        ) from error
