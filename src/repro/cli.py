"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiment set:

- ``info``       corpus/frontend summary of a scale
- ``baseline``   PPRVSM per-frontend + fused EER/C_avg
- ``dba``        one boosting pass (threshold, variant) vs baseline
- ``table1``     Tr_DBA composition vs threshold (paper Table 1)
- ``sweep``      full Table 2/3 threshold sweep for one variant
- ``table4``     baseline vs DBA singles + fusion (paper Table 4)
- ``campaign``   the full protocol: Tables 1-4 in one run
- ``replicate``  the headline comparison across corpus seeds

plus the serving vertical (:mod:`repro.serve`):

- ``export``     train a system and persist it as a versioned artifact
- ``score``      score a corpus split or a JSON utterance file offline
- ``serve``      run the JSON HTTP scoring service over an artifact

and the observability vertical (:mod:`repro.obs`):

- ``obs show``   render a runlog's stage tree and per-stage roll-up

plus stage-store maintenance and distributed execution
(:mod:`repro.exec`, :mod:`repro.dist`):

- ``exec verify``   re-hash every store payload, report/remove corruption
- ``exec run``      coordinate a leased multi-process campaign over a
  store (``--workers N``); rerun the same command to resume after any
  crash — coordinator included
- ``exec workers``  attach N reinforcement workers to a campaign
  published by ``exec run`` (another terminal/host on the same
  filesystem)

Experiment commands accept ``--scale smoke|bench`` and ``--seed``;
offline commands that execute stages also take ``--retries`` and
``--on-error {fail,quarantine,degrade}`` (the :mod:`repro.faults`
ladder); ``score``/``serve`` read their configuration from the artifact
itself.
Setting ``REPRO_TRACE=1`` wraps any command (except ``obs``) in a trace
and writes a runlog directory under ``runlogs/`` (override with
``REPRO_RUNLOG_DIR``); inspect it with ``repro obs show <runlog>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro.obs import trace
from repro.core import (
    bench_scale,
    build_system,
    format_dba_table,
    format_table4,
    smoke_scale,
    trdba_composition,
    vote_count_matrix,
)
from repro.core import replicate_headline, run_campaign, vote_report
from repro.core.analysis import format_table1

__all__ = ["main", "build_parser"]


def _registry():
    """The process-wide metrics registry the CLI's engines publish into.

    The CLI runs a single engine per process, so folding its ``serve.*``
    instruments into :func:`repro.obs.metrics.default_registry` is safe
    and lets traced runs capture cache hit rates in the runlog.
    """
    from repro.obs.metrics import default_registry

    return default_registry()


def _make_system(args):
    config = smoke_scale(args.seed) if args.scale == "smoke" else bench_scale(args.seed)
    if trace.enabled():
        from repro.serve.artifacts import config_fingerprint

        trace.annotate_root(
            config_sha256=config_fingerprint(config),
            scale=args.scale,
            seed=args.seed,
        )
    store = getattr(args, "store", None)
    retries = getattr(args, "retries", 1)
    retry = None
    if retries and retries > 1:
        from repro.faults import RetryPolicy

        retry = RetryPolicy(max_attempts=retries, seed=args.seed)
    return (
        build_system(
            config,
            store=store,
            retry=retry,
            on_error=getattr(args, "on_error", "fail"),
        ),
        config,
    )


def _print_metrics(system, result, label: str) -> None:
    for duration in system.durations:
        metrics = system.frontend_metrics(result, duration)
        cells = "  ".join(
            f"{name}:{eer:.2f}/{c:.2f}" for name, (eer, c) in metrics.items()
        )
        fe, fc = system.fused_metrics([result], duration)
        print(f"[{label}] {int(duration)}s  {cells}  fused:{fe:.2f}/{fc:.2f}")


def cmd_info(args) -> int:
    """Print a corpus/frontend summary of the chosen scale."""
    system, config = _make_system(args)
    corpus = config.corpus
    print(f"scale: {args.scale} (seed {corpus.seed})")
    print(
        f"languages: {corpus.n_languages} in {corpus.n_families} families "
        f"(cohesion {corpus.family_weight})"
    )
    print(
        f"corpora: train {len(system.bundle.train)}, dev "
        f"{len(system.bundle.dev)}, test "
        + ", ".join(
            f"{int(d)}s:{len(c)}" for d, c in system.bundle.test.items()
        )
    )
    print("frontends:")
    for fe in system.frontends:
        print(f"  {fe.name:<8} |phones| = {len(fe.phone_set)}")
    print(f"supervector orders: {system.system.orders}")
    return 0


def cmd_baseline(args) -> int:
    """Run the PPRVSM baseline and print per-frontend + fused metrics."""
    system, _ = _make_system(args)
    baseline = system.baseline()
    _print_metrics(system, baseline, "PPRVSM")
    return 0


def cmd_dba(args) -> int:
    """Run one DBA pass and print baseline vs boosted metrics."""
    system, _ = _make_system(args)
    baseline = system.baseline()
    result = system.dba(args.threshold, args.variant, baseline)
    _print_metrics(system, baseline, "PPRVSM")
    _print_metrics(system, result, f"DBA-{args.variant} V={args.threshold}")
    truth = system.pooled_test_labels()
    print(
        f"pool: {len(result.pseudo)} utterances, "
        f"error {100 * result.pseudo.error_rate(truth):.2f} %"
    )
    print("\nper-subsystem voting behaviour (baseline scores):")
    print(
        vote_report(
            baseline.pooled_test_scores(),
            truth,
            [fe.name for fe in system.frontends],
        ).to_text()
    )
    return 0


def cmd_table1(args) -> int:
    """Regenerate the paper's Table 1 (Tr_DBA composition)."""
    system, config = _make_system(args)
    baseline = system.baseline()
    counts = vote_count_matrix(baseline.pooled_test_scores())
    rows = trdba_composition(
        counts, system.pooled_test_labels(), config.vote_thresholds
    )
    print(format_table1(rows))
    return 0


def cmd_sweep(args) -> int:
    """Regenerate the paper's Table 2/3 threshold sweep."""
    system, config = _make_system(args)
    baseline = system.baseline()
    names = [fe.name for fe in system.frontends]
    baseline_cells, dba_cells = {}, {}
    for duration in system.durations:
        for name, cell in system.frontend_metrics(baseline, duration).items():
            baseline_cells[(name, duration)] = cell
    for threshold in config.vote_thresholds:
        result = system.dba(threshold, args.variant, baseline)
        for duration in system.durations:
            for name, cell in system.frontend_metrics(result, duration).items():
                dba_cells[(name, duration, threshold)] = cell
    print(
        format_dba_table(
            names,
            system.durations,
            config.vote_thresholds,
            baseline_cells,
            dba_cells,
        )
    )
    return 0


def cmd_table4(args) -> int:
    """Regenerate the paper's Table 4 (singles + fusion)."""
    system, _ = _make_system(args)
    baseline = system.baseline()
    m1 = system.dba(args.threshold, "M1", baseline)
    m2 = system.dba(args.threshold, "M2", baseline)
    names = [fe.name for fe in system.frontends]
    baseline_cells, dba_cells, baseline_fused, dba_fused = {}, {}, {}, {}
    for duration in system.durations:
        for name, cell in system.frontend_metrics(baseline, duration).items():
            baseline_cells[(name, duration)] = cell
        for name, cell in system.frontend_metrics(m2, duration).items():
            dba_cells[(name, duration)] = cell
        baseline_fused[duration] = system.fused_metrics([baseline], duration)
        dba_fused[duration] = system.fused_metrics([m1, m2], duration)
    print(
        format_table4(
            names,
            system.durations,
            baseline_cells,
            baseline_fused,
            dba_cells,
            dba_fused,
        )
    )
    return 0


def cmd_campaign(args) -> int:
    """Run the full evaluation protocol and print/save every table."""
    system, config = _make_system(args)
    result = run_campaign(
        config,
        system=system,
        fusion_threshold=args.threshold,
        progress=lambda msg: print(f"... {msg}"),
    )
    print()
    print(result.to_text())
    if result.degraded:
        print("\ndegraded frontends:")
        for name, reason in sorted(result.degraded.items()):
            print(f"  {name}: {reason}")
    if result.quarantined:
        total = sum(len(ids) for ids in result.quarantined.values())
        print(f"quarantined utterances: {total}")
    if args.output:
        path = result.save(args.output)
        print(f"\nsaved to {path}")
    return 0


def cmd_replicate(args) -> int:
    """Replicate baseline-vs-DBA over several corpus seeds (error bars)."""
    from repro.core import bench_scale as _bench
    from repro.core import smoke_scale as _smoke

    factory = _smoke if args.scale == "smoke" else _bench
    seeds = tuple(args.seed + i for i in range(args.n_seeds))
    summary = replicate_headline(
        seeds,
        config_factory=factory,
        threshold=args.threshold,
        variant=args.variant,
        store=args.store,
        progress=lambda msg: print(f"... {msg}"),
    )
    print()
    print(summary.to_text())
    return 0


def cmd_export(args) -> int:
    """Train a system at the chosen scale and persist it for serving."""
    from repro.serve import export_trained, save_system

    system, config = _make_system(args)
    print(f"... training baseline ({args.scale} scale, seed {args.seed})")
    baseline = system.baseline()
    results = [baseline]
    metadata = {
        "command": "export",
        "scale": args.scale,
        "seed": args.seed,
        "source": "baseline",
    }
    if args.dba_threshold is not None:
        print(
            f"... boosting (DBA-{args.variant}, V={args.dba_threshold})"
        )
        results = [system.dba(args.dba_threshold, args.variant, baseline)]
        metadata.update(
            source=f"dba-{args.variant}", threshold=args.dba_threshold
        )
    trained = export_trained(system, results, config)
    path = save_system(args.output, trained, metadata=metadata)
    print(
        f"exported {metadata['source']} system "
        f"({len(trained.subsystems)} subsystems, "
        f"{len(trained.language_names)} languages) to {path}"
    )
    return 0


def _corpus_for_tag(bundle, tag: str):
    """Resolve ``train``/``dev``/``test@<duration>`` on a corpus bundle."""
    if tag == "train":
        return bundle.train
    if tag == "dev":
        return bundle.dev
    if tag.startswith("test@"):
        duration = float(tag.split("@", 1)[1])
        try:
            return bundle.test[duration]
        except KeyError:
            raise SystemExit(
                f"no test corpus at duration {duration}; "
                f"have {sorted(bundle.test)}"
            ) from None
    raise SystemExit(f"unknown corpus tag {tag!r}")


def cmd_score(args) -> int:
    """Score utterances offline with a persisted system."""
    from repro.corpus.splits import make_corpus_bundle
    from repro.serve import ScoringEngine, load_system
    from repro.serve.protocol import utterance_from_json
    from repro.utils.io import save_scores

    trained = load_system(args.artifact)
    labels = None
    if args.input:
        with open(args.input) as fh:
            payload = json.load(fh)
        utterances = [utterance_from_json(u) for u in payload["utterances"]]
        source = args.input
    else:
        bundle = make_corpus_bundle(trained.config.corpus)
        corpus = _corpus_for_tag(bundle, args.tag)
        utterances = list(corpus.utterances)
        known = set(trained.language_names)
        if all(u.language in known for u in utterances):
            labels = corpus.label_indices(trained.language_names)
        source = f"regenerated corpus {args.tag!r}"
    engine = ScoringEngine(trained, max_batch=args.max_batch, registry=_registry())
    scores = engine.score_utterances(utterances)
    predictions = engine.predict_languages(scores)
    print(f"scored {len(utterances)} utterances from {source}")
    for utt, pred in list(zip(utterances, predictions))[: args.show]:
        print(f"  {utt.utt_id:<24} -> {pred}")
    if len(utterances) > args.show:
        print(f"  ... ({len(utterances) - args.show} more)")
    if labels is not None:
        from repro.core.pipeline import evaluate_scores

        eer, c_avg = evaluate_scores(scores, labels)
        accuracy = float(
            (scores.argmax(axis=1) == labels).mean()
        )
        print(
            f"EER {eer:.2f} %  C_avg {c_avg:.2f} %  "
            f"top-1 accuracy {100 * accuracy:.1f} %"
        )
    if args.output:
        save_scores(args.output, {"scores": scores})
        print(f"saved score matrix to {args.output}")
    return 0


def cmd_serve(args) -> int:
    """Run the JSON HTTP scoring service over a persisted system.

    ``--workers 0`` (the default) runs the classic in-process server;
    ``--workers N`` starts the :mod:`repro.cluster` tier — N engine
    worker processes sharing the mmap-loaded artifact behind a routing
    front door (see ``docs/serving.md``, "Scaling out").
    """
    from repro.serve import ScoringEngine, load_system, run_server

    engine_kwargs = dict(
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        cache_entries=args.cache_entries,
        workers=args.decode_workers,
        max_queue=args.max_queue if args.max_queue > 0 else None,
        deadline=args.deadline if args.deadline > 0 else None,
    )
    if args.workers and args.workers > 0:
        from repro.cluster import run_cluster

        run_cluster(
            args.artifact,
            args.workers,
            args.host,
            args.port,
            engine_kwargs=engine_kwargs,
        )
        return 0

    trained = load_system(args.artifact)
    engine = ScoringEngine(trained, registry=_registry(), **engine_kwargs)
    print(
        f"loaded system: {len(trained.subsystems)} subsystems over "
        f"{len(trained.frontends)} frontends, "
        f"{len(trained.language_names)} languages"
    )
    run_server(engine, args.host, args.port)
    return 0


def cmd_exec_verify(args) -> int:
    """Re-hash every store payload; report (and optionally drop) corruption.

    Also accepts a *saved-system* directory (``save_system`` output,
    detected by its ``manifest.json``): those get the full-SHA-256 audit
    of :func:`repro.serve.verify_system`, which re-hashes the ``.bin``
    weight payloads the fast ``mmap`` load path only size-checks.
    """
    from pathlib import Path

    from repro.exec.store import ArtifactStore, StoreError

    if (Path(args.store) / "manifest.json").exists():
        from repro.serve.artifacts import ArtifactError, verify_system

        try:
            problems = verify_system(args.store)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.remove:
            print(
                "error: --remove only applies to stage stores; a saved "
                "system with corrupt payloads must be re-exported",
                file=sys.stderr,
            )
            return 2
        if not problems:
            print(f"saved system {args.store}: all payloads verified")
            return 0
        for record in problems:
            print(f"  CORRUPT ({record['problem']}): {record['file']}")
        print(f"{len(problems)} corrupt payloads — re-export the system")
        return 1

    try:
        store = ArtifactStore(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    corrupt = store.verify(remove=args.remove)
    print(f"store {args.store}: {len(store)} entries")
    if not corrupt:
        print("all payloads verified")
        return 0
    for record in corrupt:
        print(f"  CORRUPT ({record['problem']}): {record['file']}")
    if args.remove:
        print(f"removed {len(corrupt)} corrupt entries")
        return 0
    print(
        f"{len(corrupt)} corrupt entries (re-run with --remove to drop them)"
    )
    return 1


def cmd_exec_run(args) -> int:
    """Coordinate a distributed campaign: N leased workers over a store.

    Everything durable lives under ``--store`` (spec, journal, leases,
    stage products), so the whole command — workers *and* coordinator —
    can be SIGKILLed and rerun: the rerun attaches to the journal and
    finishes from where the store left off.
    """
    from repro.dist import DistError, DistributedCampaign
    from repro.faults.injection import FaultPlan

    config = (
        smoke_scale(args.seed)
        if args.scale == "smoke"
        else bench_scale(args.seed)
    )
    if trace.enabled():
        from repro.serve.artifacts import config_fingerprint

        trace.annotate_root(
            config_sha256=config_fingerprint(config),
            scale=args.scale,
            seed=args.seed,
        )
    faults = FaultPlan.parse(args.faults) if args.faults else None
    campaign = DistributedCampaign(
        config,
        store=args.store,
        workers=args.workers,
        campaign_id=args.campaign,
        fusion_threshold=args.threshold,
        retries=args.retries,
        on_error=args.on_error,
        lease_ttl=args.lease_ttl,
        poison_threshold=args.poison_threshold,
        faults=faults,
        registry=_registry(),
    )
    print(
        f"campaign {campaign.campaign_id}: {args.workers} workers over "
        f"store {args.store} (lease ttl {args.lease_ttl:g}s)"
    )
    try:
        outcome = campaign.run(join_timeout=args.timeout or None)
    except DistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verb = "resumed" if outcome.resumed else "completed"
    print(
        f"{verb} in {outcome.wall_s:.1f}s: "
        f"{len(outcome.workers_done)} workers finished"
        + (
            f", {len(outcome.workers_failed)} failed"
            if outcome.workers_failed
            else ""
        )
        + f", tables sha256 {outcome.tables_sha256[:12]}…"
    )
    interesting = {
        k: int(v)
        for k, v in sorted(outcome.metrics.items())
        if v and k.split(".", 1)[1]
        in ("claims", "steals", "lease_expirations", "poisoned", "waits")
    }
    if interesting:
        print("  " + "  ".join(f"{k}={v}" for k, v in interesting.items()))
    if outcome.degraded:
        print(f"  degraded frontends: {', '.join(outcome.degraded)}")
    print()
    print(outcome.tables)
    if args.output:
        from pathlib import Path as _Path

        path = _Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(outcome.tables)
        print(f"saved to {path}")
    return 0


def cmd_exec_workers(args) -> int:
    """Attach reinforcement workers to a published campaign."""
    from repro.dist import DistError, attach_workers

    print(
        f"joining campaign {args.campaign} at store {args.store} "
        f"with {args.n} worker(s)"
    )
    try:
        codes = attach_workers(
            args.store, args.campaign, args.n, registry=_registry()
        )
    except DistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = {slot: c for slot, c in codes.items() if c not in (0, None)}
    for slot, code in sorted(codes.items()):
        print(f"  worker {slot}: exit {code}")
    return 1 if failed else 0


def cmd_obs_show(args) -> int:
    """Render a runlog's stage tree and per-stage roll-up."""
    from repro.obs import read_runlog, render_runlog

    try:
        run = read_runlog(args.runlog)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_runlog(run, max_depth=args.max_depth))
    except BrokenPipeError:  # e.g. `obs show … | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PPRVSM + Discriminative Boosting Algorithm experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--scale", choices=("smoke", "bench"), default="smoke",
            help="experiment scale (default: smoke)",
        )
        p.add_argument("--seed", type=int, default=2009)

    def with_store(p):
        p.add_argument(
            "--store", metavar="DIR", default=None,
            help="artifact-store directory: persist every stage product "
            "and resume from it on re-runs",
        )

    def with_faults(p):
        p.add_argument(
            "--retries", type=int, default=1, metavar="N",
            help="max attempts per stage/store operation for transient "
            "failures (default: 1 = no retries)",
        )
        p.add_argument(
            "--on-error", choices=("fail", "quarantine", "degrade"),
            default="fail",
            help="after retries: fail fast, quarantine persistently "
            "failing utterances, or additionally degrade by dropping "
            "dead frontends and renormalizing fusion weights "
            "(default: fail)",
        )

    p = sub.add_parser("info", help="corpus/frontend summary")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("baseline", help="PPRVSM baseline metrics")
    common(p)
    with_store(p)
    with_faults(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("dba", help="one DBA pass vs baseline")
    common(p)
    with_store(p)
    with_faults(p)
    p.add_argument("--threshold", "-V", type=int, default=3)
    p.add_argument("--variant", choices=("M1", "M2"), default="M2")
    p.set_defaults(func=cmd_dba)

    p = sub.add_parser("table1", help="Tr_DBA composition (paper Table 1)")
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sweep", help="threshold sweep (paper Tables 2/3)")
    common(p)
    with_store(p)
    with_faults(p)
    p.add_argument("--variant", choices=("M1", "M2"), default="M1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table4", help="baseline vs DBA + fusion (Table 4)")
    common(p)
    with_store(p)
    with_faults(p)
    p.add_argument("--threshold", "-V", type=int, default=3)
    p.set_defaults(func=cmd_table4)

    p = sub.add_parser(
        "campaign", help="full protocol: Tables 1-4 in one run"
    )
    common(p)
    with_store(p)
    with_faults(p)
    p.add_argument("--threshold", "-V", type=int, default=3)
    p.add_argument("--output", "-o", default=None, help="save tables here")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "replicate", help="baseline vs DBA over several corpus seeds"
    )
    common(p)
    with_store(p)
    p.add_argument("--n-seeds", type=int, default=3)
    p.add_argument("--threshold", "-V", type=int, default=3)
    p.add_argument("--variant", choices=("M1", "M2"), default="M2")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser(
        "export", help="train and persist a system for serving"
    )
    common(p)
    p.add_argument("output", help="artifact directory to create")
    p.add_argument(
        "--dba-threshold", "-V", type=int, default=None,
        help="also boost with DBA at this vote threshold before export",
    )
    p.add_argument("--variant", choices=("M1", "M2"), default="M2")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "score", help="score utterances offline with a saved artifact"
    )
    p.add_argument("artifact", help="artifact directory from `repro export`")
    p.add_argument(
        "--tag", default="dev",
        help="corpus split to regenerate and score: train|dev|test@<dur> "
        "(default: dev)",
    )
    p.add_argument(
        "--input", default=None,
        help='JSON file {"utterances": [...]} to score instead of a split',
    )
    p.add_argument("--output", "-o", default=None, help="save scores (.npz)")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument(
        "--show", type=int, default=5, help="predictions to print"
    )
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "serve", help="run the JSON HTTP scoring service"
    )
    p.add_argument("artifact", help="artifact directory from `repro export`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337)
    p.add_argument(
        "--batch-window", type=float, default=0.02,
        help="micro-batch coalescing window in seconds (default: 0.02)",
    )
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument(
        "--cache-entries", type=int, default=512,
        help="score cache bound (0 disables)",
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="engine worker *processes*: 0 = classic in-process server, "
        "N >= 1 = the repro.cluster tier (front door + N workers "
        "sharing the mmap-loaded artifact)",
    )
    p.add_argument(
        "--decode-workers", type=int, default=None,
        help="decode thread-pool width per engine "
        "(default: auto / REPRO_WORKERS)",
    )
    p.add_argument(
        "--max-queue", type=int, default=1024,
        help="admission-control bound on queued requests; a full queue "
        "returns HTTP 429 (0 = unbounded; default: 1024)",
    )
    p.add_argument(
        "--deadline", type=float, default=30.0,
        help="per-request deadline in seconds; requests that cannot "
        "finish in time return HTTP 503 (0 disables; default: 30)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("exec", help="artifact-store maintenance")
    exec_sub = p.add_subparsers(dest="exec_command", required=True)
    pv = exec_sub.add_parser(
        "verify",
        help="re-hash store or saved-system payloads, report corruption",
    )
    pv.add_argument(
        "store",
        help="artifact-store directory, or a saved-system directory "
        "(detected by manifest.json) for a full-SHA-256 audit",
    )
    pv.add_argument(
        "--remove", action="store_true",
        help="drop corrupt entries from the index",
    )
    pv.set_defaults(func=cmd_exec_verify)

    pr = exec_sub.add_parser(
        "run",
        help="coordinate a distributed campaign: N leased worker "
        "processes over one store",
    )
    common(pr)
    with_faults(pr)
    pr.add_argument(
        "--store", metavar="DIR", required=True,
        help="artifact-store directory shared by every worker; also "
        "holds the campaign journal (dist/<id>/) and lease board",
    )
    pr.add_argument(
        "--workers", "-n", type=int, default=4,
        help="worker processes in the coordinator's fleet (default: 4)",
    )
    pr.add_argument(
        "--campaign", default=None, metavar="ID",
        help="campaign id (journal directory name); defaults to the "
        "config fingerprint, so rerunning the same experiment resumes it",
    )
    pr.add_argument("--threshold", "-V", type=int, default=3)
    pr.add_argument(
        "--lease-ttl", type=float, default=5.0, metavar="S",
        help="stage lease time-to-live; a worker silent this long is "
        "presumed dead and its stages are re-claimed (default: 5)",
    )
    pr.add_argument(
        "--poison-threshold", type=int, default=3, metavar="K",
        help="quarantine a stage after it kills K consecutive claimants "
        "(default: 3)",
    )
    pr.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="coordinator-side fault plan (REPRO_FAULTS syntax); the "
        "'worker-kill' target SIGKILLs a lease-holding worker per firing",
    )
    pr.add_argument(
        "--timeout", type=float, default=0.0, metavar="S",
        help="abort if the fleet has not drained in this long "
        "(0 = wait forever)",
    )
    pr.add_argument("--output", "-o", default=None, help="save tables here")
    pr.set_defaults(func=cmd_exec_run)

    pw = exec_sub.add_parser(
        "workers",
        help="attach N reinforcement workers to a published campaign",
    )
    pw.add_argument("n", type=int, help="worker processes to contribute")
    pw.add_argument(
        "--store", metavar="DIR", required=True,
        help="the campaign's artifact-store directory",
    )
    pw.add_argument(
        "--campaign", required=True, metavar="ID",
        help="campaign id published by `repro exec run`",
    )
    pw.set_defaults(func=cmd_exec_workers)

    p = sub.add_parser(
        "obs", help="observability tools (runlog inspection)"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    ps = obs_sub.add_parser(
        "show", help="render a runlog stage tree + per-stage roll-up"
    )
    ps.add_argument(
        "runlog", help="runlog directory (or its manifest.json)"
    )
    ps.add_argument(
        "--max-depth", type=int, default=None,
        help="bound the rendered span-tree depth",
    )
    ps.set_defaults(func=cmd_obs_show)

    return parser


def _run_traced(args) -> int:
    """Run one command under a trace and persist the runlog.

    The trace covers the whole command; the runlog lands in a
    ``<command>-<timestamp>-<pid>`` directory under
    :func:`repro.obs.runlog.default_runlog_root` together with a
    snapshot of the process-wide metrics registry (which carries the
    decoder/supervector/pmap instruments and — for ``score``/``serve`` —
    the engine's ``serve.*`` counters and cache hit rates).
    """
    from repro.obs import default_runlog_root, write_runlog
    from repro.obs.metrics import default_registry

    trace.start_trace(args.command)
    trace.annotate_root(command=args.command)
    try:
        code = int(args.func(args))
    finally:
        root = trace.stop_trace()
        if root is not None:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            directory = (
                default_runlog_root()
                / f"{args.command}-{stamp}-{os.getpid()}"
            )
            path = write_runlog(
                directory,
                root,
                metrics=default_registry().snapshot(),
                extra={"argv": list(sys.argv[1:])},
            )
            print(f"runlog written to {path}")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    With ``REPRO_TRACE=1`` in the environment, every command except
    the ``obs``/``exec`` maintenance tools (``exec run`` — a real
    campaign — *is* traced) runs under a trace and writes a runlog
    (see :func:`_run_traced`); an already-active trace (embedding
    callers) is left untouched.
    """
    args = build_parser().parse_args(argv)
    untraced = args.command == "obs" or (
        args.command == "exec"
        and getattr(args, "exec_command", None) != "run"
    )
    if trace.env_enabled() and not untraced and not trace.enabled():
        return _run_traced(args)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
