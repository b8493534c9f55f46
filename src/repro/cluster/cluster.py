"""The GPU cluster: a collection of machines plus allocation state."""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.machine import GpuSlot, GpuType, Machine

__all__ = ["Cluster", "Allocation", "FreePool"]


@dataclass(frozen=True)
class Allocation:
    """GPUs granted to one interleaving group.

    Attributes:
        owner: Group id the slots belong to.
        slots: The granted GPU slots.
    """

    owner: int
    slots: tuple

    @property
    def num_gpus(self) -> int:
        return len(self.slots)

    @property
    def machine_ids(self) -> List[int]:
        """Distinct machines the allocation spans, ascending."""
        return sorted({slot.machine_id for slot in self.slots})

    @property
    def spans_machines(self) -> bool:
        """True when the allocation crosses a machine boundary."""
        return len(self.machine_ids) > 1


class FreePool:
    """Free-slot index of one placement pool.

    A pool is the set of machines one type-affinity key selects
    (:meth:`Machine.matches_type`).  Placement reads this index instead
    of scanning the machines.

    Attributes:
        free: Free GPU slots across the pool's machines.
        buckets: ``buckets[k]`` holds, ascending, the ids of the
            pool's machines with exactly ``k`` free slots.
    """

    __slots__ = ("free", "buckets")

    def __init__(self, max_free: int) -> None:
        self.free = 0
        self.buckets: List[List[int]] = [[] for _ in range(max_free + 1)]

    def _add(self, machine_id: int, free: int) -> None:
        insort(self.buckets[free], machine_id)
        self.free += free

    def _move(self, machine_id: int, old: int, new: int) -> None:
        bucket = self.buckets[old]
        del bucket[bisect_left(bucket, machine_id)]
        insort(self.buckets[new], machine_id)
        self.free += new - old


class Cluster:
    """A cluster of machines, homogeneous by default.

    Args:
        num_machines: Number of servers.
        gpus_per_machine: GPU slots per server (the paper's testbed is
            8 machines x 8 GPUs = 64 GPUs).
        machine_types: Optional per-machine GPU generations, one per
            server.  Omitted (the default) every machine is untyped —
            the original homogeneous cluster, bit-identical to the
            pre-hetero behaviour.
    """

    def __init__(
        self,
        num_machines: int = 8,
        gpus_per_machine: int = 8,
        machine_types: Optional[Sequence[GpuType]] = None,
    ) -> None:
        if num_machines < 1:
            raise ValueError("a cluster needs at least one machine")
        if machine_types is not None and len(machine_types) != num_machines:
            raise ValueError(
                f"machine_types has {len(machine_types)} entries for "
                f"{num_machines} machines"
            )
        self.machines: List[Machine] = [
            Machine(
                machine_id=i,
                num_gpus=gpus_per_machine,
                gpu_type=machine_types[i] if machine_types else None,
            )
            for i in range(num_machines)
        ]
        self._allocations: Dict[int, Allocation] = {}
        self._total_gpus = sum(m.num_gpus for m in self.machines)
        # One free-slot index per affinity key: None (every machine)
        # and each GPU generation.  allocate and release keep them
        # current; nothing else may change a machine's slots.
        max_free = max(m.num_gpus for m in self.machines)
        self._pools: Dict[Optional[str], FreePool] = {None: FreePool(max_free)}
        self._pools_of: List[Tuple[FreePool, ...]] = []
        for machine in self.machines:
            pools = [self._pools[None]]
            if machine.gpu_type is not None:
                name = machine.gpu_type.name
                if name not in self._pools:
                    self._pools[name] = FreePool(max_free)
                pools.append(self._pools[name])
            for pool in pools:
                pool._add(machine.machine_id, machine.free_gpu_count)
            self._pools_of.append(tuple(pools))

    # -- GPU generations ------------------------------------------------------

    def gpu_type_names(self) -> Tuple[str, ...]:
        """Distinct generation names present, sorted; empty if untyped."""
        return tuple(sorted({
            m.gpu_type.name for m in self.machines if m.gpu_type is not None
        }))

    @property
    def is_heterogeneous(self) -> bool:
        """True when machines carry more than one GPU generation."""
        return len(self.gpu_type_names()) > 1

    def machines_of_type(self, type_name: Optional[str]) -> List[Machine]:
        """Machines satisfying a type-affinity key, cluster order."""
        return [m for m in self.machines if m.matches_type(type_name)]

    def gpu_type_of_machine(self, machine_id: int) -> Optional[str]:
        """Generation name of one machine, or None when untyped."""
        gpu_type = self.machines[machine_id].gpu_type
        return None if gpu_type is None else gpu_type.name

    def free_pool(self, type_name: Optional[str]) -> FreePool:
        """Free-slot index of the machines a type-affinity key selects.

        The returned index is live: read it, never mutate it.  A
        generation absent from the cluster selects an empty pool.
        """
        pool = self._pools.get(type_name)
        if pool is None:
            return FreePool(0)
        return pool

    # -- capacity -------------------------------------------------------------

    @property
    def total_gpus(self) -> int:
        return self._total_gpus

    @property
    def free_gpus(self) -> int:
        return self._pools[None].free

    @property
    def allocated_gpus(self) -> int:
        return self.total_gpus - self.free_gpus

    def can_fit(self, num_gpus: int) -> bool:
        """True if ``num_gpus`` slots are free cluster-wide."""
        return num_gpus <= self.free_gpus

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    # -- allocation --------------------------------------------------------------

    def allocate(self, owner: int, slot_plan: Dict[int, int]) -> Allocation:
        """Grant GPUs to ``owner`` following a per-machine plan.

        Args:
            owner: Group id receiving the slots.
            slot_plan: Mapping ``machine_id -> gpu count``.

        Raises:
            ValueError: If the owner already holds an allocation or a
                machine lacks capacity (nothing is allocated then).
        """
        if owner in self._allocations:
            raise ValueError(f"owner {owner} already holds an allocation")
        for machine_id, count in slot_plan.items():
            if self.machines[machine_id].free_gpu_count < count:
                raise ValueError(
                    f"machine {machine_id} cannot provide {count} GPUs"
                )
        slots: List[GpuSlot] = []
        for machine_id, count in slot_plan.items():
            machine = self.machines[machine_id]
            free = machine.free_gpu_count
            slots.extend(machine.allocate(count, owner))
            for pool in self._pools_of[machine_id]:
                pool._move(machine_id, free, free - count)
        allocation = Allocation(owner=owner, slots=tuple(slots))
        self._allocations[owner] = allocation
        return allocation

    def release(self, owner: int) -> None:
        """Free every slot held by ``owner``.

        Raises:
            KeyError: If the owner holds no allocation.
        """
        allocation = self._allocations.pop(owner)
        by_machine: Dict[int, List[GpuSlot]] = {}
        for slot in allocation.slots:
            by_machine.setdefault(slot.machine_id, []).append(slot)
        for machine_id, slots in by_machine.items():
            machine = self.machines[machine_id]
            free = machine.free_gpu_count
            machine.release(slots)
            for pool in self._pools_of[machine_id]:
                pool._move(machine_id, free, free + len(slots))

    def allocation_of(self, owner: int) -> Optional[Allocation]:
        return self._allocations.get(owner)

    def allocations(self) -> Iterable[Allocation]:
        return list(self._allocations.values())

    def release_all(self) -> None:
        """Free every allocation (used between scheduling rounds)."""
        for owner in list(self._allocations):
            self.release(owner)

    # -- fragmentation metrics --------------------------------------------------

    def fragmentation(self) -> float:
        """Fraction of free GPUs stranded on partially used machines.

        Zero when free capacity is concentrated on fully empty
        machines; approaches one when every machine is partially used.
        """
        free = self.free_gpus
        if free == 0:
            return 0.0
        stranded = sum(
            m.free_gpu_count
            for m in self.machines
            if 0 < m.free_gpu_count < m.num_gpus
        )
        return stranded / free
