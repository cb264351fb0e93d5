"""Ablation — what environment integration buys (the paper's core claim).

Compares the full EnCore detector against an EnCore trained with
``augment_environment=False`` (no semantic verification against the
system, no augmented columns, no env rows) on the Table 9 real-world
cases.  This isolates the contribution of the environment half of the
paper's title, complementing Table 8's baseline comparison.
"""

from conftest import archive, run_once

from repro.core.pipeline import EnCore, EnCoreConfig
from repro.corpus.generator import Ec2CorpusGenerator
from repro.corpus.realworld import real_world_cases


def _detected_cases(encore, held_out) -> set:
    out = set()
    for case in real_world_cases():
        broken = case.inject(held_out)
        report = encore.check(broken)
        if report.rank_of_attribute(case.target_attribute) is not None:
            out.add(case.case_id)
    return out


def test_ablation_environment_integration(benchmark, results_dir):
    def run():
        images = Ec2CorpusGenerator(seed=3).generate(121)
        training, held_out = images[:120], images[120]
        full = EnCore(EnCoreConfig())
        full.train(training)
        no_env = EnCore(EnCoreConfig(augment_environment=False))
        no_env.train(training)
        return _detected_cases(full, held_out), _detected_cases(no_env, held_out)

    with_env, without_env = run_once(benchmark, run)
    text = (
        "Table 9 cases detected (of 10):\n"
        f"  with environment integration    : {len(with_env)}  {sorted(with_env)}\n"
        f"  without environment integration : {len(without_env)}  {sorted(without_env)}\n"
    )
    archive(results_dir, "ablation_environment", text)
    # Environment integration must strictly expand detection: turning it
    # off never adds a detection, the Env-classified cases (2, 3, 4, 5)
    # are invisible without it, while pure-Corr value orderings (case 10)
    # survive.
    assert without_env <= with_env
    assert len(with_env) > len(without_env)
    for env_case in (2, 3, 4, 5):
        assert env_case in with_env
        assert env_case not in without_env
    assert 10 in without_env
