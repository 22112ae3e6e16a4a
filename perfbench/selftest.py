"""Self-tests of the benchmark's output checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Each check must pass on a correct result and fail on a deliberately
corrupted one -- one attribute changed, one replica missing a version, one
identity resolving to the wrong element, one read answered with another
subscriber, one write overtaken, one backlog write out of order.  A check
that cannot fail proves nothing.  Exit code 0 when every case behaves.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core.config import UDRConfig  # noqa: E402
from repro.core.udr import UDRNetworkFunction  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SUBSCRIBERS = 60


def loaded():
    profiles = workloads.base_profiles(5, SUBSCRIBERS)
    udr = UDRNetworkFunction(UDRConfig(seed=5, name="selftest"))
    udr.start()
    udr.load_subscriber_base(profiles)
    return udr, profiles


def commit_on_master(udr, profile, record) -> None:
    """A write that reaches the master copy and no secondary copy."""
    where = checks.master_elements(udr)[profile.key]
    copy = udr.deployment.replica_set_of_element(where).master_copy
    transaction = copy.transactions.begin()
    transaction.write(profile.key, record)
    transaction.commit()


def corrupt_attribute():
    udr, profiles = loaded()
    record = dict(profiles[7].to_record(), svcCfu="+990000000")
    commit_on_master(udr, profiles[7], record)
    return checks.bulk_load_problems(udr, profiles)


def replica_missing_version():
    udr, profiles = loaded()
    # Same value, new version: the master record still equals the profile,
    # only the secondary copies lack the version.
    commit_on_master(udr, profiles[3], profiles[3].to_record())
    return checks.replica_problems(udr)


def misrouted_identity():
    udr, profiles = loaded()
    where = checks.master_elements(udr)[profiles[9].key]
    wrong = next(name for name in udr.elements if name != where)
    locator = next(iter(udr.locators.values()))
    locator.register({"msisdn": profiles[9].identities.msisdn}, wrong)
    return checks.bulk_load_problems(udr, profiles)


def shadow(profiles):
    return checks.ShadowModel({profile.identities.imsi: profile.to_record()
                               for profile in profiles})


def read_of_other_subscriber():
    profiles = workloads.base_profiles(5, 4)
    model = shadow(profiles)
    model.check_entry(profiles[0].identities.imsi, profiles[1].to_record())
    return model.problems


def search_of_other_subscriber():
    profiles = workloads.base_profiles(5, 4)
    model = shadow(profiles)
    model.check_entry(profiles[0].identities.msisdn, profiles[1].to_record(),
                      by="msisdn")
    return model.problems


def read_of_unwritten_value():
    profiles = workloads.base_profiles(5, 4)
    model = shadow(profiles)
    imsi = profiles[0].identities.imsi
    model.write_submitted(imsi, {"servingMsc": "msc-a"})
    entry = dict(profiles[0].to_record(), servingMsc="msc-b")
    model.check_entry(imsi, entry)
    return model.problems


def overtaken_write_survives():
    profiles = workloads.base_profiles(5, 4)
    model = shadow(profiles)
    imsi = profiles[0].identities.imsi
    model.write_submitted(imsi, {"servingMsc": "msc-a"})
    model.write_acked(imsi, {"servingMsc": "msc-a"}, 1.0, 1.1)
    model.write_submitted(imsi, {"servingMsc": "msc-b"})
    model.write_acked(imsi, {"servingMsc": "msc-b"}, 2.0, 2.1)
    stored = dict(profiles[0].to_record(), servingMsc="msc-a")
    records = {imsi: stored}
    records.update({profile.identities.imsi: profile.to_record()
                    for profile in profiles[1:]})
    return model.final_problems(records.get)


def backlog_out_of_order():
    profiles = workloads.base_profiles(5, 4)
    model = shadow(profiles)
    imsi = profiles[0].identities.imsi
    model.write_submitted(imsi, {"svcCfb": "+1"})
    model.write_submitted(imsi, {"svcCfb": "+2"})
    stored = dict(profiles[0].to_record(), svcCfb="+1")
    return model.last_submitted_problems({imsi: stored}.get)


def clean_bulk_load():
    udr, profiles = loaded()
    return checks.bulk_load_problems(udr, profiles)


def clean_shadow():
    profiles = workloads.base_profiles(5, 4)
    model = shadow(profiles)
    imsi = profiles[0].identities.imsi
    model.write_submitted(imsi, {"servingMsc": "msc-a"})
    model.write_acked(imsi, {"servingMsc": "msc-a"}, 1.0, 1.1)
    entry = dict(profiles[0].to_record(), servingMsc="msc-a")
    model.check_entry(imsi, entry)
    model.check_entry(profiles[1].identities.msisdn, profiles[1].to_record(),
                      by="msisdn")
    records = {profile.identities.imsi: profile.to_record()
               for profile in profiles}
    records[imsi] = entry
    return model.final_problems(records.get) + \
        model.last_submitted_problems(records.get)


#: (case, whether the check must report a problem)
CASES = (
    (clean_bulk_load, False),
    (clean_shadow, False),
    (corrupt_attribute, True),
    (replica_missing_version, True),
    (misrouted_identity, True),
    (read_of_other_subscriber, True),
    (search_of_other_subscriber, True),
    (read_of_unwritten_value, True),
    (overtaken_write_survives, True),
    (backlog_out_of_order, True),
)


def main() -> int:
    wrong = 0
    for case, must_fail in CASES:
        problems = case()
        ok = bool(problems) == must_fail
        wrong += not ok
        shown = problems[0] if problems else "no problem reported"
        print(f"{'ok  ' if ok else 'FAIL'} {case.__name__}: {shown}")
    print(f"{len(CASES) - wrong} of {len(CASES)} self-tests behave")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
