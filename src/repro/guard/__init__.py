"""repro.guard — fault injection and the hardening that answers it.

Two halves that prove each other (DESIGN.md §9):

* :mod:`repro.guard.chaos` — deterministic, seeded fault injectors for
  traces (duplicate uids, clock skew, NaN bursts, truncation, field
  corruption), the runtime (worker crashes / kills / hangs, torn cache
  writes), and a replayable campaign (``repro chaos --seed 7``);
* :mod:`repro.guard.repair` — the trace sanitize/repair pipeline behind
  the ``strict|repair|skip`` load policies;
* :mod:`repro.guard.numeric` — training watchdogs: NaN/Inf update
  vetoes, gradient-explosion detection, best-so-far rollback.

Every guard emits ``repro.obs`` signals (``guard.repairs``,
``guard.skipped_updates``, ``guard.divergence_rollbacks``,
``cache.quarantined``, ``chaos.injected``) so a run that survived a
fault is never silently indistinguishable from a clean one.

The package re-exports nothing: importing it must stay cheap, because
:mod:`repro.core.iboxml` imports :mod:`repro.guard.numeric`, and
:mod:`repro.guard.chaos` pulls in the whole serve stack.  Import from
the submodules::

    from repro.guard.chaos import run_campaign
    from repro.guard.repair import repair_trace

    report = repair_trace(messy_trace)
    print(report.actions)          # {"drop_duplicate_uid": 3, ...}

    campaign = run_campaign("/tmp/chaos", seed=7, policy="repair")
    assert campaign.ok, campaign.format_report()
"""
