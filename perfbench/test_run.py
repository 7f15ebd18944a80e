"""Self-test of the benchmark's correctness gate.

    python3 perfbench/test_run.py

A flipped byte in a reference and a non-zero exit must both count as a
failed op.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def spawn(code):
    with tempfile.TemporaryDirectory() as d:
        return run.Spawner(Path(d)).run([sys.executable, "-c", code])


class CorrectnessGate(unittest.TestCase):
    def test_flipped_reference_byte_is_counted(self):
        _, rc, out = spawn("print('Table 4: CPU systems')")
        flipped = bytearray(out)
        flipped[6] ^= 0x01
        tally = run.Tally()
        tally.record(run.check_output("table", rc, out, out))
        tally.record(run.check_output("table", rc, out, bytes(flipped)))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("at byte 6", tally.reasons[0])

    def test_nonzero_exit_is_counted(self):
        _, rc, out = spawn("import sys; print('Table 4'); sys.exit(3)")
        tally = run.Tally()
        tally.record(run.check_output("table", rc, out, out))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("exit code 3", tally.reasons[0])


if __name__ == "__main__":
    unittest.main()
