"""iBox: Internet in a Box — a data-informed network simulator.

Reproduction of Ashok et al., "iBox: Internet in a Box", HotNets 2020.

iBox turns end-to-end input/output packet traces into simulation models
that recreate network behaviour, enabling counterfactual analysis: learn a
model from traces of sender type A, then predict how sender type B would
have fared on the same path.

The package is organised as:

``repro.simulation``
    An ns-like packet-level discrete-event simulator (links, byte-based
    droptail queues, variable-bandwidth cellular links, reordering boxes)
    plus a NetEm-like emulator driven by learnt parameters.
``repro.protocols``
    Congestion-control senders: TCP Cubic, Vegas, Reno, a BBR-flavoured
    sender, a CBR sender, and a delay-sensitive RTC control loop.
``repro.trace``
    The trace data model (input/output packet records), feature extraction
    and the end-to-end metrics the paper reports.
``repro.core``
    The paper's contribution: static parameter estimation, cross-traffic
    estimation, iBoxNet, iBoxML, reordering augmentation, and the
    instance/ensemble A/B-test drivers.
``repro.ml``
    A from-scratch numpy neural-network substrate (stacked LSTM with BPTT,
    Adam, Gaussian-NLL head, logistic regression).
``repro.discovery``
    SAX discretization and motif mining for behaviour discovery.
``repro.analysis``
    Two-sample KS helpers, percentile-error tables, k-means++ and t-SNE.
``repro.datasets``
    Synthetic Pantheon-like and RTC-like trace generation.
``repro.baselines``
    The calibrated-emulator-with-statistical-loss baseline and raw replay.
``repro.runtime``
    The batch execution subsystem: declarative jobs, a content-addressed
    profile cache, a process-pool executor, and per-run JSON manifests.

The package re-exports nothing, so ``import repro.cli`` stays cheap;
import the subpackage or module you need.

Quickstart::

    from repro.datasets import pantheon
    from repro.core import iboxnet

    run = pantheon.generate_run(seed=1, protocol="cubic")
    model = iboxnet.fit(run.trace)
    predicted = model.simulate("vegas", duration=30.0, seed=2)
    print(predicted.summary())
"""

__version__ = "1.1.0"
