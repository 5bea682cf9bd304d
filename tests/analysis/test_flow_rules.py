"""RAQO012 unverified-lock-guard and RAQO015 dead-suppression."""


class TestUnverifiedLockGuard:
    def test_never_held_lock_pragma_is_flagged(self, lint):
        source = """
        import threading

        _LOCK = threading.Lock()
        CACHE = {}  # lint: guarded-by=_LOCK


        def put(key, value):
            CACHE[key] = value
        """
        findings = lint(source, rule="RAQO012")
        assert [f.rule_id for f in findings] == ["RAQO012"]
        finding = findings[0]
        assert finding.line == 9
        assert "guarded-by=_LOCK" in finding.message
        assert "without 'with _LOCK:' held" in finding.message

    def test_mutation_under_the_lock_passes(self, lint):
        source = """
        import threading

        _LOCK = threading.Lock()
        CACHE = {}  # lint: guarded-by=_LOCK


        def put(key, value):
            with _LOCK:
                CACHE[key] = value
        """
        assert lint(source, rule="RAQO012") == []

    def test_only_the_unguarded_site_is_flagged(self, lint):
        source = """
        import threading

        _LOCK = threading.Lock()
        CACHE = {}  # lint: guarded-by=_LOCK


        def put(key, value):
            with _LOCK:
                CACHE[key] = value


        def evict(key):
            CACHE.pop(key, None)
        """
        findings = lint(source, rule="RAQO012")
        assert [f.line for f in findings] == [14]
        assert "CACHE.pop(...)" in findings[0].message

    def test_refuted_raqo005_suppression_is_flagged(self, lint):
        source = """
        CACHE = {}  # lint: disable=RAQO005


        def put(key, value):
            CACHE[key] = value
        """
        findings = lint(source, rule="RAQO012")
        assert len(findings) == 1
        assert "suppresses RAQO005" in findings[0].message
        assert "no lock held" in findings[0].message

    def test_suppression_with_some_lock_held_is_trusted(self, lint):
        source = """
        import threading

        _LOCK = threading.Lock()
        CACHE = {}  # lint: disable=RAQO005


        def put(key, value):
            with _LOCK:
                CACHE[key] = value
        """
        assert lint(source, rule="RAQO012") == []

    def test_local_shadow_is_not_a_mutation(self, lint):
        source = """
        CACHE = {}  # lint: guarded-by=_LOCK


        def compute():
            CACHE = {}
            CACHE["x"] = 1
            return CACHE
        """
        assert lint(source, rule="RAQO012") == []

    def test_wrong_lock_held_is_flagged(self, lint):
        source = """
        import threading

        _LOCK = threading.Lock()
        _OTHER = threading.Lock()
        CACHE = {}  # lint: guarded-by=_LOCK


        def put(key, value):
            with _OTHER:
                CACHE[key] = value
        """
        findings = lint(source, rule="RAQO012")
        assert len(findings) == 1


class TestDeadSuppression:
    def test_dead_line_pragma_is_flagged(self, lint):
        source = """
        def f():
            return 1  # lint: disable=RAQO006
        """
        findings = lint(source, rule="RAQO015")
        assert [f.rule_id for f in findings] == ["RAQO015"]
        assert (
            "suppression of RAQO006 is dead" in findings[0].message
        )

    def test_live_pragma_is_not_flagged(self, lint):
        source = """
        def f(acc=[]):  # lint: disable=RAQO006
            pass
        """
        assert lint(source, rule="RAQO015") == []

    def test_unknown_rule_label_is_flagged(self, lint):
        source = "x = 1  # lint: disable=RAQO099\n"
        findings = lint(source, rule="RAQO015")
        assert len(findings) == 1
        assert "unknown rule 'RAQO099'" in findings[0].message

    def test_dead_file_pragma_is_flagged(self, lint):
        source = "# lint: disable-file=RAQO006\n\nx = 1\n"
        findings = lint(source, rule="RAQO015")
        assert len(findings) == 1
        assert "anywhere in this file" in findings[0].message

    def test_live_file_pragma_is_not_flagged(self, lint):
        source = (
            "# lint: disable-file=RAQO006\n\n"
            "def f(acc=[]):\n    pass\n"
        )
        assert lint(source, rule="RAQO015") == []

    def test_disable_all_is_never_audited(self, lint):
        source = """
        def f():
            return 1  # lint: disable=all
        """
        assert lint(source, rule="RAQO015") == []

    def test_standalone_dead_pragma_targets_next_line(self, lint):
        source = """
        def f():
            # lint: disable=RAQO006
            return 1
        """
        findings = lint(source, rule="RAQO015")
        assert len(findings) == 1
        assert "on line 4" in findings[0].message
