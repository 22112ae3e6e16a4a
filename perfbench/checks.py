"""Output checks: each workload's results against the benchmark's own model.

Every check returns a list of problems (empty when the outputs are right)
and compares against a computation of the benchmark or a property of the
method -- never against stored output of an earlier run.  ``selftest.py``
shows that each check fails on a deliberately corrupted result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Identity namespaces resolved by the data-location stage besides the IMSI.
SECONDARY_IDENTITIES = ("msisdn", "impu", "impi")
#: Problems reported per check, at most.
LIMIT = 20


def master_elements(udr) -> Dict[str, str]:
    """Record key -> name of the element whose master copy holds it."""
    where = {}
    for replica_set in udr.replica_sets.values():
        element_name = replica_set.master_element_name
        for key in replica_set.master_copy.store.keys():
            where[key] = element_name
    return where


def replica_problems(udr) -> List[str]:
    """Every secondary copy must hold exactly its master's committed state:
    the same live keys, and per key the same latest value, commit sequence
    number and number of versions."""
    problems: List[str] = []
    for index, replica_set in sorted(udr.replica_sets.items()):
        master = replica_set.master_copy.store
        master_keys = set(master.keys())
        for slave_name in replica_set.slave_names():
            slave = replica_set.copy_on(slave_name).store
            slave_keys = set(slave.keys())
            if slave_keys != master_keys:
                problems.append(
                    f"partition {index}: {slave_name} holds "
                    f"{len(slave_keys)} live keys, master "
                    f"{len(master_keys)}")
            for key in sorted(master_keys & slave_keys):
                ours, theirs = master.latest(key), slave.latest(key)
                if (ours.value, ours.commit_seq) != \
                        (theirs.value, theirs.commit_seq) or \
                        len(master.versions(key)) != len(slave.versions(key)):
                    problems.append(f"partition {index}: {slave_name} "
                                    f"differs from its master on {key}")
                    if len(problems) >= LIMIT:
                        return problems
    return problems


def bulk_load_problems(udr, profiles: Sequence) -> List[str]:
    """The loaded base: records, replicas, identity resolution, placement.

    * every subscriber's master record equals ``profile.to_record()``;
    * every secondary copy equals its master;
    * every MSISDN/IMPU/IMPI resolves, at every data-location instance, to
      the element that masters the subscriber's record;
    * each subscriber sits in its home region;
    * the per-element subscriber counts sum to the number loaded.
    """
    problems: List[str] = []
    where = master_elements(udr)
    for profile in profiles:
        if len(problems) >= LIMIT:
            return problems
        imsi = profile.identities.imsi
        record = udr.subscriber_record(imsi)
        if record != profile.to_record():
            problems.append(f"{imsi}: master record differs from its profile")
            continue
        element_name = where.get(profile.key)
        if element_name is None:
            problems.append(f"{imsi}: no master copy holds {profile.key}")
            continue
        region = udr.elements[element_name].site.region.name
        if region != profile.home_region:
            problems.append(f"{imsi}: stored in {region}, home region "
                            f"{profile.home_region}")
        identities = profile.identities
        for locator_name, locator in sorted(udr.locators.items()):
            for identity_type in ("imsi",) + SECONDARY_IDENTITIES:
                value = getattr(identities, identity_type)
                located = locator.locate(identity_type, value)
                if located != element_name:
                    problems.append(
                        f"{imsi}: {locator_name} resolves {identity_type} "
                        f"{value} to {located}, record is on {element_name}")
    total = sum(element.subscriber_count()
                for element in udr.elements.values())
    if total != len(profiles):
        problems.append(f"elements hold {total} subscribers, "
                        f"{len(profiles)} were loaded")
    problems.extend(replica_problems(udr))
    return problems[:LIMIT]


class ShadowModel:
    """What every record may hold, built from the operations submitted.

    Each benchmark write sets one attribute to a value no other write uses,
    so a value identifies the write that put it there.  A read may answer
    the value of any write to that attribute submitted before the read
    completed (a read served by a lagging secondary copy may be stale), or
    the loaded value; any other value -- in particular another subscriber's
    -- is wrong.
    """

    def __init__(self, records: Dict[str, dict]):
        #: IMSI -> the record as loaded or created.
        self.initial = records
        #: MSISDN -> IMSI, for identity searches.
        self.by_msisdn = {record["msisdn"]: imsi
                          for imsi, record in records.items()}
        #: (IMSI, attribute) -> values submitted so far.
        self.submitted: Dict[Tuple[str, str], set] = {}
        #: (IMSI, attribute) -> [(value, submit time, ack time), ...] of
        #: acknowledged writes.
        self.acked: Dict[Tuple[str, str], List[tuple]] = {}
        #: (IMSI, attribute) -> value of the last write submitted.
        self.last_submitted: Dict[Tuple[str, str], object] = {}
        self.problems: List[str] = []

    def add_record(self, record: dict) -> None:
        """A subscription created during the run (``Provision.create``)."""
        self.initial[record["imsi"]] = record
        self.by_msisdn[record["msisdn"]] = record["imsi"]

    def write_submitted(self, imsi: str, changes: dict) -> None:
        for attribute, value in changes.items():
            self.submitted.setdefault((imsi, attribute), set()).add(value)
            self.last_submitted[(imsi, attribute)] = value

    def write_acked(self, imsi: str, changes: dict, submitted_at: float,
                    acked_at: float) -> None:
        for attribute, value in changes.items():
            self.acked.setdefault((imsi, attribute), []).append(
                (value, submitted_at, acked_at))

    def check_entry(self, asked: str, entry: Optional[dict],
                    by: str = "imsi") -> None:
        """A read or search answer, checked when it arrives."""
        imsi = asked if by == "imsi" else self.by_msisdn.get(asked)
        if entry is None:
            self._fail(f"{by} {asked}: answered with no entry")
            return
        if entry.get(by) != asked or entry.get("imsi") != imsi:
            self._fail(f"{by} {asked}: answered with subscriber "
                       f"{entry.get('imsi')}")
            return
        for attribute, value in self.initial[imsi].items():
            got = entry.get(attribute)
            if got == value:
                continue
            if got not in self.submitted.get((imsi, attribute), ()):
                self._fail(f"{imsi}.{attribute}: read {got!r}, which no "
                           f"write submitted so far set")

    def final_problems(self, record_of) -> List[str]:
        """After quiescing: each written attribute holds the value of an
        acknowledged write that no other write followed in real time (acked
        before the other was submitted); unwritten attributes hold their
        loaded value."""
        problems = list(self.problems)
        for imsi, record in self.initial.items():
            if len(problems) >= LIMIT:
                break
            stored = record_of(imsi)
            if stored is None:
                problems.append(f"{imsi}: record missing")
                continue
            for attribute, value in record.items():
                if (imsi, attribute) in self.acked:
                    continue
                if stored.get(attribute) != value:
                    problems.append(f"{imsi}.{attribute}: holds "
                                    f"{stored.get(attribute)!r}, nothing "
                                    f"wrote it")
        for (imsi, attribute), writes in sorted(self.acked.items()):
            if len(problems) >= LIMIT:
                break
            stored = record_of(imsi) or {}
            value = stored.get(attribute)
            survivor = [write for write in writes if write[0] == value]
            if not survivor:
                problems.append(f"{imsi}.{attribute}: holds {value!r}, no "
                                f"acknowledged write set it")
                continue
            _value, _submitted, acked = survivor[0]
            overtaken = [write for write in writes if write[1] > acked]
            if overtaken:
                problems.append(
                    f"{imsi}.{attribute}: holds {value!r}, acknowledged at "
                    f"{acked:.6f}s before a write submitted at "
                    f"{overtaken[0][1]:.6f}s")
        return problems[:LIMIT]

    def last_submitted_problems(self, record_of) -> List[str]:
        """FIFO admission within one class from one source: the final value
        of every written attribute is the last one submitted."""
        problems = []
        for (imsi, attribute), value in sorted(self.last_submitted.items()):
            stored = (record_of(imsi) or {}).get(attribute)
            if stored != value:
                problems.append(f"{imsi}.{attribute}: holds {stored!r}, "
                                f"last submitted {value!r}")
                if len(problems) >= LIMIT:
                    break
        return problems

    def _fail(self, problem: str) -> None:
        if len(self.problems) < LIMIT:
            self.problems.append(problem)
