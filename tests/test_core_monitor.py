"""Tests for the E-Android monitor — the Fig. 5 attack-lifecycle FSMs."""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.android import (
    BRIGHTNESS_MODE_AUTOMATIC,
    BRIGHTNESS_MODE_MANUAL,
    SCREEN_BRIGHT_WAKE_LOCK,
    PARTIAL_WAKE_LOCK,
    SCREEN_BRIGHTNESS,
    SCREEN_BRIGHTNESS_MODE,
    explicit,
)
from repro.core import AttackKind, CollateralEventType, SCREEN_TARGET, attach_eandroid
from repro.core.monitor import EAndroidMonitor
from repro.telemetry import FRAMEWORK_CATEGORIES, Category, TelemetryEvent, events

from helpers import booted_system, make_app


@pytest.fixture
def rig():
    system = booted_system(
        make_app("com.malware"), make_app("com.victim"), make_app("com.third")
    )
    return system, attach_eandroid(system)


def live_kinds(ea):
    return [(l.kind, l.driving_uid, l.target) for l in ea.accounting.live_attacks()]


class TestActivityTracker:
    """Fig. 5a."""

    def test_cross_app_start_opens_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        system.am.start_activity(malware, explicit("com.victim", "PlainActivity"))
        assert (AttackKind.ACTIVITY, malware, victim) in live_kinds(ea)

    def test_same_app_start_ignored(self, rig):
        system, ea = rig
        system.launch_app("com.malware")
        malware = system.uid_of("com.malware")
        system.am.start_activity(malware, explicit("com.malware", "TransparentActivity"))
        assert all(k != AttackKind.ACTIVITY for k, _, _ in live_kinds(ea))

    def test_user_start_opens_no_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        assert live_kinds(ea) == []

    def test_user_restart_ends_link(self, rig):
        """Attack ends when the app is started again."""
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.am.start_activity(malware, explicit("com.victim", "PlainActivity"))
        system.run_for(10.0)
        system.launch_app("com.victim")  # user starts the victim
        assert live_kinds(ea) == []
        link = ea.accounting.attacks_by_kind(AttackKind.ACTIVITY)[0]
        assert link.duration(system.now) == pytest.approx(10.0)

    def test_new_driver_replaces_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        third = system.uid_of("com.third")
        victim = system.uid_of("com.victim")
        system.am.start_activity(malware, explicit("com.victim", "PlainActivity"))
        system.run_for(5.0)
        system.am.start_activity(third, explicit("com.victim", "PlainActivity"))
        kinds = live_kinds(ea)
        assert (AttackKind.ACTIVITY, third, victim) in kinds
        assert (AttackKind.ACTIVITY, malware, victim) not in kinds

    def test_user_move_to_front_ends_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.am.start_activity(malware, explicit("com.victim", "PlainActivity"))
        system.press_home()
        system.am.move_task_to_front(
            system.package_manager.system_uid, "com.victim", user_initiated=True
        )
        assert all(k != AttackKind.ACTIVITY for k, _, _ in live_kinds(ea))

    def test_app_move_to_front_opens_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        system.press_home()
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        system.am.move_task_to_front(malware, "com.victim")
        assert (AttackKind.ACTIVITY, malware, victim) in live_kinds(ea)


class TestInterruptTracker:
    """Fig. 5b."""

    def test_app_interrupting_foreground_opens_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        # Malware starts its own activity over the victim.
        system.am.start_activity(malware, explicit("com.malware", "PlainActivity"))
        assert (AttackKind.INTERRUPT, malware, victim) in live_kinds(ea)

    def test_home_intent_interrupt(self, rig):
        """Attack #4's move: malware sends the victim to background by
        starting the home UI; the launcher (system) is never charged."""
        system, ea = rig
        system.launch_app("com.victim")
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        system.am.move_task_to_front(malware, "com.android.launcher")
        kinds = live_kinds(ea)
        assert (AttackKind.INTERRUPT, malware, victim) in kinds
        assert all(t != system.launcher.uid for _, _, t in kinds)

    def test_user_home_press_is_not_interrupt(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        system.press_home()
        assert live_kinds(ea) == []

    def test_interrupt_ends_when_victim_returns(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        malware = system.uid_of("com.malware")
        system.am.start_activity(malware, explicit("com.malware", "PlainActivity"))
        system.run_for(8.0)
        system.am.move_task_to_front(
            system.package_manager.system_uid, "com.victim", user_initiated=True
        )
        assert live_kinds(ea) == []
        link = ea.accounting.attacks_by_kind(AttackKind.INTERRUPT)[0]
        assert link.duration(system.now) == pytest.approx(8.0)


class TestServiceTracker:
    """Fig. 5c."""

    def test_start_until_stop(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        system.am.start_service(malware, explicit("com.victim", "PlainService"))
        assert (AttackKind.SERVICE_START, malware, victim) in live_kinds(ea)
        system.run_for(10.0)
        system.am.stop_service(malware, explicit("com.victim", "PlainService"))
        assert live_kinds(ea) == []

    def test_stop_self_ends_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        record = system.am.start_service(malware, explicit("com.victim", "PlainService"))
        record.instance.stop_self()
        assert live_kinds(ea) == []

    def test_bind_until_unbind(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        conn = system.am.bind_service(malware, explicit("com.victim", "PlainService"))
        assert (AttackKind.SERVICE_BIND, malware, victim) in live_kinds(ea)
        system.am.unbind_service(conn)
        assert live_kinds(ea) == []

    def test_attack3_window_matches_bind_period(self, rig):
        """Fig. 9c: only energy during the collateral window is charged."""
        system, ea = rig
        malware = system.uid_of("com.malware")
        victim = system.uid_of("com.victim")
        svc = explicit("com.victim", "PlainService")
        # Victim starts its own service (no link: same app).
        system.am.start_service(victim, svc)
        system.run_for(20.0)
        # Malware binds; victim stops — the binding keeps it alive.
        conn = system.am.bind_service(malware, svc)
        bind_time = system.now
        system.am.stop_service(victim, svc)
        system.run_for(60.0)
        system.am.unbind_service(conn)
        links = ea.accounting.attacks_by_kind(AttackKind.SERVICE_BIND)
        assert len(links) == 1
        assert links[0].begin_time == bind_time
        assert links[0].end_time == bind_time + 60.0

    def test_refcounted_binds(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        svc = explicit("com.victim", "PlainService")
        c1 = system.am.bind_service(malware, svc)
        c2 = system.am.bind_service(malware, svc)
        assert len(ea.accounting.attacks_by_kind(AttackKind.SERVICE_BIND)) == 1
        system.am.unbind_service(c1)
        assert len(live_kinds(ea)) == 1
        system.am.unbind_service(c2)
        assert live_kinds(ea) == []

    def test_malware_death_ends_bind_link(self, rig):
        system, ea = rig
        system.launch_app("com.malware")
        malware = system.uid_of("com.malware")
        system.am.bind_service(malware, explicit("com.victim", "PlainService"))
        system.am.force_stop("com.malware")
        assert all(k != AttackKind.SERVICE_BIND for k, _, _ in live_kinds(ea))

    def test_same_app_service_ops_ignored(self, rig):
        system, ea = rig
        victim = system.uid_of("com.victim")
        svc = explicit("com.victim", "PlainService")
        system.am.start_service(victim, svc)
        conn = system.am.bind_service(victim, svc)
        assert live_kinds(ea) == []
        system.am.unbind_service(conn)  # must not crash the tracker
        system.am.stop_service(victim, svc)
        assert live_kinds(ea) == []


class TestScreenTracker:
    """Fig. 5d."""

    def test_brightness_increase_opens_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.settings.put(malware, SCREEN_BRIGHTNESS, 255)
        assert (AttackKind.SCREEN, malware, SCREEN_TARGET) in live_kinds(ea)

    def test_brightness_decrease_by_attacker_ends_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.settings.put(malware, SCREEN_BRIGHTNESS, 255)
        system.run_for(10.0)
        system.settings.put(malware, SCREEN_BRIGHTNESS, 50)
        assert live_kinds(ea) == []

    def test_systemui_change_ends_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.settings.put(malware, SCREEN_BRIGHTNESS, 255)
        system.systemui.user_set_brightness(120)
        assert live_kinds(ea) == []

    def test_switch_to_auto_ends_link(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.settings.put(malware, SCREEN_BRIGHTNESS, 255)
        system.systemui.user_set_auto_mode(True)
        assert live_kinds(ea) == []

    def test_switch_to_manual_opens_link(self, rig):
        """Camouflaged auto-mode attack: store a high value, then flip
        the mode to manual so it takes effect."""
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.systemui.user_set_auto_mode(True)
        system.settings.put(malware, SCREEN_BRIGHTNESS, 255)  # stored, inert
        assert live_kinds(ea) == []
        system.settings.put(malware, SCREEN_BRIGHTNESS_MODE, BRIGHTNESS_MODE_MANUAL)
        assert (AttackKind.SCREEN, malware, SCREEN_TARGET) in live_kinds(ea)

    def test_decrease_without_link_is_noop(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.settings.put(malware, SCREEN_BRIGHTNESS, 50)
        assert all(k != AttackKind.SCREEN for k, _, _ in live_kinds(ea))


class TestWakelockTracker:
    """Fig. 5e."""

    def test_acquire_in_background_opens_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")  # victim foreground, malware not
        malware = system.uid_of("com.malware")
        system.power_manager.acquire(malware, SCREEN_BRIGHT_WAKE_LOCK, "svc-lock")
        assert (AttackKind.WAKELOCK, malware, SCREEN_TARGET) in live_kinds(ea)

    def test_acquire_in_foreground_no_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        victim = system.uid_of("com.victim")
        system.power_manager.acquire(victim, SCREEN_BRIGHT_WAKE_LOCK, "fg-lock")
        assert live_kinds(ea) == []

    def test_entering_background_with_lock_opens_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        victim = system.uid_of("com.victim")
        system.power_manager.acquire(victim, SCREEN_BRIGHT_WAKE_LOCK, "fg-lock")
        system.press_home()
        assert (AttackKind.WAKELOCK, victim, SCREEN_TARGET) in live_kinds(ea)

    def test_release_ends_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        victim = system.uid_of("com.victim")
        lock = system.power_manager.acquire(victim, SCREEN_BRIGHT_WAKE_LOCK, "l")
        system.press_home()
        system.run_for(25.0)
        lock.release()
        assert live_kinds(ea) == []
        link = ea.accounting.attacks_by_kind(AttackKind.WAKELOCK)[0]
        assert link.duration(system.now) == pytest.approx(25.0)

    def test_return_to_foreground_ends_link(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        victim = system.uid_of("com.victim")
        system.power_manager.acquire(victim, SCREEN_BRIGHT_WAKE_LOCK, "l")
        system.press_home()
        assert len(live_kinds(ea)) == 1
        system.am.move_task_to_front(
            system.package_manager.system_uid, "com.victim", user_initiated=True
        )
        assert live_kinds(ea) == []

    def test_partial_lock_not_a_screen_attack(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        malware = system.uid_of("com.malware")
        system.power_manager.acquire(malware, PARTIAL_WAKE_LOCK, "cpu-lock")
        assert live_kinds(ea) == []

    def test_death_release_ends_link(self, rig):
        system, ea = rig
        system.launch_app("com.malware")
        malware = system.uid_of("com.malware")
        system.launch_app("com.victim")
        system.power_manager.acquire(malware, SCREEN_BRIGHT_WAKE_LOCK, "leak")
        assert len(live_kinds(ea)) >= 1
        system.am.force_stop("com.malware")
        assert all(k != AttackKind.WAKELOCK for k, _, _ in live_kinds(ea))


class TestEventJournal:
    def test_all_events_logged_including_system(self, rig):
        system, ea = rig
        system.launch_app("com.victim")
        system.press_home()
        log = ea.monitor.log
        assert len(log.of_type(CollateralEventType.ACTIVITY_START)) >= 1
        assert len(log.of_type(CollateralEventType.FOREGROUND_CHANGED)) >= 2

    def test_same_app_events_journaled_but_linkless(self, rig):
        system, ea = rig
        victim = system.uid_of("com.victim")
        system.am.start_service(victim, explicit("com.victim", "PlainService"))
        assert len(ea.monitor.log.of_type(CollateralEventType.SERVICE_START)) == 1
        assert ea.accounting.attack_log() == []

    def test_cross_app_flag(self, rig):
        system, ea = rig
        malware = system.uid_of("com.malware")
        system.am.start_service(malware, explicit("com.victim", "PlainService"))
        event = ea.monitor.log.of_type(CollateralEventType.SERVICE_START)[0]
        assert event.is_cross_app


class TestLateAttach:
    def test_monitor_primed_with_preexisting_locks(self):
        """A monitor attached after locks were acquired still tracks
        the Fig. 5e begin condition on the next foreground change."""
        system = booted_system(make_app("com.holder"), make_app("com.fg"))
        system.launch_app("com.holder")
        holder = system.uid_of("com.holder")
        from repro.android import SCREEN_BRIGHT_WAKE_LOCK

        system.power_manager.acquire(holder, SCREEN_BRIGHT_WAKE_LOCK, "pre")
        ea = attach_eandroid(system)  # attached AFTER the acquire
        system.launch_app("com.fg")  # holder backgrounds with the lock
        assert (AttackKind.WAKELOCK, holder, SCREEN_TARGET) in live_kinds(ea)


def _concrete_events(base):
    """Every public event class ``repro.telemetry.events`` defines."""
    for cls in base.__subclasses__():
        if cls.__module__ == events.__name__ and not cls.__name__.startswith("_"):
            yield cls
        yield from _concrete_events(cls)


class TestDispatchTable:
    """The event-class → handler table is the monitor's whole input."""

    def test_every_framework_event_has_exactly_one_handler(self):
        # A framework event kind without a handler would never be
        # journaled; this fails instead of dropping it silently.
        framework = {
            cls
            for cls in _concrete_events(TelemetryEvent)
            if cls.category in FRAMEWORK_CATEGORIES
        }
        assert set(EAndroidMonitor.HANDLERS) == framework
        handlers = list(EAndroidMonitor.HANDLERS.values())
        assert len(set(handlers)) == len(handlers)
        for handler in handlers:
            assert getattr(EAndroidMonitor, handler.__name__) is handler

    def test_one_subscription_per_framework_category(self, rig):
        system, ea = rig
        assert system.telemetry.subscriber_count() == len(FRAMEWORK_CATEGORIES)
        ea.monitor.detach()
        assert system.telemetry.subscriber_count() == 0
        assert not ea.monitor.attached

    def test_event_without_handler_is_skipped(self, rig):
        system, ea = rig

        @dataclass(frozen=True)
        class UnhandledScreenEvent(TelemetryEvent):
            category: ClassVar[Category] = Category.SCREEN

        journaled = len(ea.monitor.log)
        system.telemetry.publish(UnhandledScreenEvent(time=system.now))
        assert len(ea.monitor.log) == journaled
        assert system.telemetry.errors == []
