"""Table 5 — real-time factors per pipeline stage, PPRVSM vs DBA (§5.5).

The paper reports seconds-of-compute per second-of-speech for decoding,
supervector generation and supervector product on the HU frontend's 30 s
test, and argues (Eqs. 16–19) that DBA's extra modeling/scoring passes are
negligible against decoding, so C_DBA / C_baseline ≈ 1.

This bench times the three stages directly with pytest-benchmark on a
fixed utterance batch, prints the Table 5 layout, and checks the Eq. 19
ratio through a :class:`CostLedger` over one timed pass.  Absolute values
depend on the host and the reduced frame rate; the *relative* structure
is the claim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.svm.vsm import VSM
from repro.utils.rng import child_rng
from repro.utils.timing import CostLedger


@pytest.fixture(scope="module")
def hu_setup(lab):
    """HU frontend + its longest-duration test corpus and artifacts."""
    frontend = next(fe for fe in lab.system.frontends if fe.name == "HU")
    duration = max(lab.durations)
    corpus = lab.system.corpus_for(f"test@{duration}")
    batch = corpus.utterances[: min(24, len(corpus))]
    audio = sum(u.duration for u in batch)
    sausages = [frontend.decode(u, child_rng(1, u.utt_id)) for u in batch]
    vsm = VSM(
        len(frontend.phone_set),
        len(lab.system.bundle.registry),
        orders=lab.system.system.orders,
    )
    raw = vsm.extract(sausages)
    vsm.fit_matrix(raw, np.arange(raw.n_rows) % len(lab.system.bundle.registry))
    return frontend, batch, audio, sausages, vsm, raw


def test_table5_decoding_rtf(hu_setup, benchmark):
    frontend, batch, audio, _, _, _ = hu_setup

    def decode_batch():
        return [
            frontend.decode(u, child_rng(2, u.utt_id)) for u in batch
        ]

    benchmark.extra_info["audio_seconds"] = audio
    benchmark.pedantic(decode_batch, rounds=3, iterations=1)


def test_table5_sv_generation_rtf(hu_setup, benchmark):
    _, _, audio, sausages, vsm, _ = hu_setup
    benchmark.extra_info["audio_seconds"] = audio
    benchmark.pedantic(
        lambda: vsm.extract(sausages), rounds=3, iterations=1
    )


def test_table5_sv_product_rtf(hu_setup, benchmark):
    _, _, audio, _, vsm, raw = hu_setup
    benchmark.extra_info["audio_seconds"] = audio
    benchmark.pedantic(lambda: vsm.score_matrix(raw), rounds=5, iterations=1)


def test_table5_report_and_eq19_ratio(lab, hu_setup, report, benchmark):
    """Assemble Table 5 from one timed pass and check Eq. 19."""
    import time

    frontend, batch, audio, sausages, vsm, raw = hu_setup

    def stage_times():
        t0 = time.perf_counter()
        decoded = [frontend.decode(u, child_rng(3, u.utt_id)) for u in batch]
        t1 = time.perf_counter()
        extracted = vsm.extract(decoded)
        t2 = time.perf_counter()
        vsm.score_matrix(extracted)
        t3 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2

    decode_s, svgen_s, svprod_s = benchmark.pedantic(
        stage_times, rounds=1, iterations=1
    )
    rtf = {
        "decoding": decode_s / audio,
        "sv_gen": svgen_s / audio,
        "sv_prod": svprod_s / audio,
    }
    # DBA repeats SV product (two scoring passes) and adds a second
    # modeling pass; its phi work is identical (Eq. 16 vs 17).
    lines = [
        f"{'System':<8}{'Decoding':>12}{'SV gen.':>12}{'SV prod.':>12}",
        f"{'PPRVSM':<8}{rtf['decoding']:>12.2e}{rtf['sv_gen']:>12.2e}"
        f"{rtf['sv_prod']:>12.2e}",
        f"{'DBA':<8}{rtf['decoding']:>12.2e}{2 * rtf['sv_gen']:>12.2e}"
        f"{2 * rtf['sv_prod']:>12.2e}",
    ]
    # Eq. 18/19 check from measured stage times.
    base = CostLedger(phi=decode_s + svgen_s, modeling=0.0, test=svprod_s)
    dba = CostLedger(
        phi=decode_s + svgen_s, modeling=0.0, test=2 * svprod_s
    )
    ratio = dba.ratio_to(base)
    lines.append(f"\nC_DBA / C_baseline (Eq. 18, measured) = {ratio:.3f}")
    report("table5_rtf", "\n".join(lines))

    # Paper shape: decoding dominates; the ratio is ~1.
    assert rtf["decoding"] > rtf["sv_prod"]
    assert ratio < 1.25
