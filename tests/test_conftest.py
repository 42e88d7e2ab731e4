from pathlib import Path


def test_a_failing_hypothesis_test_leaves_the_session_running(pytester):
    # the suite's own setting and conftest, in a session of its own: a
    # failing @given test is reported and the test after it still runs
    pytester.makeini("[pytest]\nfilterwarnings =\n    error\n")
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text(encoding="utf-8"))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after_it():
            pass
        """)
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
