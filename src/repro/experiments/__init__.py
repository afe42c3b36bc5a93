"""Reproductions of every table and figure in the paper's evaluation.

Each module reproduces one result end to end — workload generation, model
fitting, simulation and metric computation — and returns a typed result
object with a ``format_report()`` method rendering the same rows/series the
paper reports.  The benchmark suite and EXPERIMENTS.md are generated from
these entry points; the ``scale`` knob trades runtime for statistical
resolution without changing the experimental design.  Import each
module directly (``from repro.experiments import fig2_ensemble``); the
package re-exports nothing, so the CLI can read the experiment names
from :mod:`repro.experiments.common` without loading every figure.

| Module              | Paper result | What it shows |
|---------------------|--------------|---------------|
| ``fig2_ensemble``   | Fig. 2       | iBoxNet ensemble A/B test matches GT |
| ``fig3_ablations``  | Fig. 3       | no-CT and statistical-loss fit worse |
| ``fig4_instance``   | Fig. 4       | per-instance models cluster perfectly |
| ``fig5_reordering`` | Fig. 5       | reordering-rate CDFs of all models |
| ``fig7_control_loop`` | Fig. 7     | control-loop bias and the CT fix |
| ``fig8_discovery``  | Fig. 8       | SAX pattern diff and augmentation |
| ``table1_rtc``      | Table 1      | CT input improves iBoxML on RTC |
| ``speed``           | §4.2         | per-packet inference cost comparison |
"""
