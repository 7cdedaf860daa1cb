"""Connected lesion-region extraction from binary masks.

Foreground pixels are grouped under 8-connectivity by two-pass labeling:
pass one scans each row into horizontal runs and unions runs that touch the
previous row (union-find with path compression and union by rank); pass two
aggregates the resolved equivalence classes into per-region statistics.
Output order is normalized by lexicographic seed pixel, so identical masks
always produce identical region lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mask_io import LesionClass, LesionMask


@dataclass(frozen=True)
class Region:
    """One 8-connected foreground component.

    ``size`` is its pixel count, ``bbox`` the inclusive (min_row, min_col,
    max_row, max_col) bounds, ``seed_pixel`` its lexicographically smallest
    (row, col) member.
    """

    size: int
    bbox: tuple[int, int, int, int]
    seed_pixel: tuple[int, int]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"region size must be >= 1, got {self.size}")
        r0, c0, r1, c1 = self.bbox
        if r1 < r0 or c1 < c0:
            raise ValueError(f"degenerate bbox {self.bbox}")
        if (r1 - r0 + 1) * (c1 - c0 + 1) < self.size:
            raise ValueError(f"bbox {self.bbox} too small for {self.size} pixels")
        sr, sc = self.seed_pixel
        if not (r0 <= sr <= r1 and c0 <= sc <= c1):
            raise ValueError(f"seed pixel {self.seed_pixel} outside bbox {self.bbox}")


@dataclass(frozen=True)
class RegionSet:
    """All regions of one mask, sorted by seed pixel."""

    lesion_class: LesionClass
    regions: tuple[Region, ...] = field(default=())

    def sizes(self) -> list[int]:
        return [r.size for r in self.regions]

    def __len__(self) -> int:
        return len(self.regions)


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.rank: list[int] = []

    def add(self) -> int:
        idx = len(self.parent)
        self.parent.append(idx)
        self.rank.append(0)
        return idx

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


def extract_regions(mask: LesionMask) -> RegionSet:
    """Partition a mask's foreground into 8-connected regions.

    Every foreground pixel lands in exactly one region; region sizes sum to
    the mask's foreground count.  An all-background mask yields an empty set.
    """
    height, width = mask.pixels.shape
    buf = mask.pixels.tobytes()  # C-order bool array: one 0x00/0x01 byte per pixel

    uf = _UnionFind()
    run_rows: list[int] = []
    run_c0: list[int] = []
    run_c1: list[int] = []
    prev: list[tuple[int, int, int]] = []  # (c0, c1, run_id) for the row above

    for row in range(height):
        base = row * width
        stop = base + width
        cur: list[tuple[int, int, int]] = []
        i = buf.find(1, base, stop)
        while i != -1:
            j = buf.find(0, i, stop)
            if j == -1:
                j = stop
            rid = uf.add()
            run_rows.append(row)
            run_c0.append(i - base)
            run_c1.append(j - base - 1)
            cur.append((i - base, j - base - 1, rid))
            i = buf.find(1, j, stop)

        # Union runs that touch the previous row: under 8-connectivity a run
        # [p0, p1] above touches [c0, c1] iff p0 <= c1 + 1 and p1 >= c0 - 1.
        a = b = 0
        while a < len(prev) and b < len(cur):
            p0, p1, pid = prev[a]
            c0, c1, cid = cur[b]
            if p1 < c0 - 1:
                a += 1
            elif p0 > c1 + 1:
                b += 1
            else:
                uf.union(pid, cid)
                if p1 <= c1:
                    a += 1
                else:
                    b += 1
        prev = cur

    # Aggregate runs per root, in raster order.  The first run seen for a
    # root carries the region's seed pixel (smallest row, then column).
    order: list[int] = []
    stats: dict[int, list[int]] = {}  # root -> [size, r0, c0, r1, c1, seed_r, seed_c]
    for rid in range(len(run_rows)):
        root = uf.find(rid)
        row, c0, c1 = run_rows[rid], run_c0[rid], run_c1[rid]
        entry = stats.get(root)
        if entry is None:
            stats[root] = [c1 - c0 + 1, row, c0, row, c1, row, c0]
            order.append(root)
        else:
            entry[0] += c1 - c0 + 1
            if c0 < entry[2]:
                entry[2] = c0
            if c1 > entry[4]:
                entry[4] = c1
            entry[3] = row  # raster order makes this the running max row

    regions = [
        Region(size=s[0], bbox=(s[1], s[2], s[3], s[4]), seed_pixel=(s[5], s[6]))
        for s in (stats[root] for root in order)
    ]
    regions.sort(key=lambda r: r.seed_pixel)
    return RegionSet(lesion_class=mask.lesion_class, regions=tuple(regions))

