import platform
import tempfile
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CompileError

#: Has GNU as pad jumps away from 32-byte boundaries.  Intel's microcode fix
#: for the JCC erratum slows a loop on Skylake-derived x86 cores when its
#: closing jump crosses such a boundary: the averaging loop of
#: ``binomial_rows`` ran 20-30% slower when an edit elsewhere in the file
#: moved it onto one.
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


# The trajectory kernel and the exact table's binomial averaging are the
# hand-written C file below; a C compiler and the Python headers are all the
# build needs.
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
