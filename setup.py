import platform
import tempfile
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CompileError

#: Has GNU as pad jumps away from 32-byte boundaries.  Intel's microcode fix
#: for the JCC erratum slows a loop on Skylake-derived x86 cores when its
#: closing jump crosses such a boundary: the averaging loop of
#: the exact expectation (``binomial_steps``) ran 20-30% slower when an edit
#: elsewhere in the file moved it onto one.
JUMP_PADDING = "-Wa,-mbranches-within-32B-boundaries"


class BuildExt(build_ext):
    """Adds ``JUMP_PADDING`` on x86-64 when the compiler takes it."""

    def build_extensions(self):
        if platform.machine().lower() in ("x86_64", "amd64"):
            with tempfile.TemporaryDirectory() as tmp:
                probe = Path(tmp, "probe.c")
                probe.write_text("int probe(void) { return 0; }\n")
                try:
                    self.compiler.compile([str(probe)], output_dir=tmp,
                                          extra_postargs=[JUMP_PADDING])
                except CompileError:
                    pass
                else:
                    for ext in self.extensions:
                        ext.extra_compile_args.append(JUMP_PADDING)
        super().build_extensions()


# The trajectory kernel and the exact expectation's backward induction are
# the hand-written C file below; a C compiler and the Python headers are all
# the build needs.  With GCC 12 or later on x86-64, the C file also builds an
# AVX-512 (x86-64-v4) clone of the averaging loop beside the baseline one,
# and the loader picks one from the CPU at load time: no flag here selects
# it.  -ffp-contract=off holds for both clones, and a vector multiply or
# add rounds each lane as the scalar one does, so the bits are the same.
setup(
    cmdclass={"build_ext": BuildExt},
    ext_modules=[
        Extension(
            "belldistil._trajectory_c",
            ["src/belldistil/_trajectory_c.c"],
            # no FMA contraction: the averaging must round like the numpy loop
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ],
)
