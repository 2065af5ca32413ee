from __future__ import annotations

from regretsynth.parallel import _usable_cpus, thread_count


def test_thread_count_is_bounded(monkeypatch):
    # only the setting is read: no pool is started here
    cpus = _usable_cpus()
    for value, expected in (("100000", cpus), ("0", 1), ("-3", 1), ("abc", 1),
                            ("1", 1), (str(cpus), cpus)):
        monkeypatch.setenv("REGRET_SYNTH_THREADS", value)
        assert thread_count() == expected, value
    monkeypatch.delenv("REGRET_SYNTH_THREADS")
    assert thread_count() == 1
