#!/usr/bin/env python
"""Dock one protein couple with the MAXDo engine (Section 2.1).

Runs the real reduced-model docking pipeline on a small couple: energy
minimization from a grid of starting positions and orientations, with a
mid-run interruption and checkpoint-restart (Section 4.3), result-file
validation (Section 5.2) and per-couple merging.

Run:  python examples/docking_single_couple.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import CostModel, ProteinLibrary
from repro.maxdo.docking import MaxDoRun
from repro.store import (
    check_segment, iter_segments, merge_couple_store, read_store, text_to_store,
)


def main() -> None:
    print("== MAXDo docking of one couple ==\n")

    # A tiny two-protein library so real minimization stays interactive.
    library = ProteinLibrary.synthetic(n_proteins=2, sum_nsep=16, seed=11)
    receptor = library.protein(0)
    ligand = library.protein(1)
    total_nsep = int(library.nsep[0])
    print(f"receptor {receptor.name}: {receptor.n_beads} beads, "
          f"{total_nsep} starting positions")
    print(f"ligand   {ligand.name}: {ligand.n_beads} beads\n")

    cost_model = CostModel.calibrated(library)
    print(f"modelled cost of one starting position: "
          f"{cost_model.seconds_per_position(0, 1):,.0f} reference seconds\n")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        n_couples, n_gamma = 6, 3  # reduced orientation grid for speed

        # Workunit 1: positions 1..3, interrupted after 2 positions —
        # exactly what a volunteer stopping their machine does.
        wu1 = MaxDoRun(
            receptor, ligand, isep_start=1, nsep=3, total_nsep=total_nsep,
            workdir=workdir, n_couples=n_couples, n_gamma=n_gamma,
            minimize=True, max_iterations=25,
        )
        ck = wu1.run(max_positions=2)
        print(f"interrupted at checkpoint: {ck.positions_done}/{ck.nsep} positions")

        # Restart from the checkpoint and finish.
        resumed = MaxDoRun(
            receptor, ligand, isep_start=1, nsep=3, total_nsep=total_nsep,
            workdir=workdir, n_couples=n_couples, n_gamma=n_gamma,
            minimize=True, max_iterations=25,
        )
        ck = resumed.run()
        file1 = resumed.finalize()
        print(f"workunit 1 complete: {file1.name}")

        # Workunit 2: the remaining positions of the couple.
        wu2 = MaxDoRun(
            receptor, ligand, isep_start=4, nsep=total_nsep - 3,
            total_nsep=total_nsep, workdir=workdir,
            n_couples=n_couples, n_gamma=n_gamma,
            minimize=True, max_iterations=25,
        )
        wu2.run()
        file2 = wu2.finalize()
        print(f"workunit 2 complete: {file2.name}\n")

        # Convert both uploads into the result store, validate them with the
        # paper's checks, then merge the couple.
        uploads = workdir / "uploads.rcs"
        text_to_store([file1, file2], uploads)
        for segment in iter_segments(uploads):
            report = check_segment(segment)
            print(f"validation of {segment.source}: "
                  f"{'OK' if report.ok else report}")
        merged = workdir / "couple.rcs"
        n_lines = merge_couple_store(uploads, merged)
        print(f"\nmerged result file: {n_lines} lines "
              f"({total_nsep} positions x {n_couples} orientation couples)")

        (couple,) = read_store(merged).segments
        records = couple.records
        rec = records[int(np.argmin(records["e_tot"]))]
        print("\nstrongest interaction found:")
        print(f"  isep={int(rec['isep'])} irot={int(rec['irot'])} "
              f"E_lj={rec['e_lj']:.2f} E_elec={rec['e_elec']:.2f} "
              f"E_tot={rec['e_tot']:.2f} kcal/mol")


if __name__ == "__main__":
    main()
