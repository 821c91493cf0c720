"""The ``repro-verify`` invariants stage checks a recorded trace.

The trace invariants pass vacuously on an empty stream, and an
unobserved trial records no protocol events. So the stage must run its
pipeline observed, and must fail when the trace lacks the events the
invariants read.
"""

import re

import repro.core.pipeline as pipeline_module
from repro.verify.cli import main


def test_invariants_stage_checks_a_recorded_trace(capsys):
    assert main(["--only", "invariants"]) == 0
    out = capsys.readouterr().out
    events = int(re.search(r"invariants: (\d+) trace events, OK", out)[1])
    assert events > 0


def test_invariants_stage_fails_on_a_trace_without_probes_or_alerts(
    monkeypatch, capsys
):
    class Silent(pipeline_module.SecureLocalizationPipeline):
        def run(self):
            result = super().run()
            self.trace.clear()
            return result

    monkeypatch.setattr(pipeline_module, "SecureLocalizationPipeline", Silent)
    assert main(["--only", "invariants"]) == 1
    err = capsys.readouterr().err
    assert "no 'probe' event recorded" in err
    assert "no 'alert' event recorded" in err
