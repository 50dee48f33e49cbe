import sys

from hypothesis import settings

# Property tests that decode whole batches opt into this profile with
# settings(settings.get_profile("byzfusion"), ...). Wall-clock deadlines are
# off because the machines this suite runs on change speed by up to 1.7x.
settings.register_profile("byzfusion", deadline=None)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance scorecard after the run, whatever the capture mode."""
    for name in ("tests.test_acceptance", "test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "VERDICTS", None):
            terminalreporter.write_sep("-", "acceptance scorecard")
            for line in mod.VERDICTS:
                terminalreporter.write_line(line)
            break
