#!/usr/bin/env python3
"""Write the reference diagrams as DOT files into out/.

Emits the three small quivers, the module category at (d, n) = (2, 3)
with irreducible arrows, and the almost-positive category at the same
parameters.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hicat.emit import emit
from hicat.models import almost_positive_model, module_model
from hicat.tuples import build_quiver


def main() -> int:
    out = Path("out")
    out.mkdir(exist_ok=True)
    figures = {f"quiver_{d}_{n}.dot": emit(build_quiver(d, n))
               for d, n in ((1, 3), (2, 3), (3, 3))}
    figures["module_2_3.dot"] = emit(module_model(2, 3), arrows="irreducible-only")
    figures["almost_positive_2_3.dot"] = emit(almost_positive_model(2, 3),
                                              arrows="irreducible-only")
    for name, text in figures.items():
        (out / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(list(out.glob('*.dot')))} DOT files to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
