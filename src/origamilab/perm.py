"""Permutations of {0, ..., n-1} as immutable image tuples."""

from .errors import NotBijective


class Permutation:
    """A bijection of range(n), composed right-to-left: (a*b)(x) = a(b(x))."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise NotBijective(f"not a permutation of 0..{n - 1}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images):
        """A permutation from an image tuple already known to be a bijection,
        such as a product or an inverse of permutations."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("permutations of different sizes")
        return Permutation._unchecked(tuple([a[i] for i in b]))

    def inv(self):
        images = [0] * self.n
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation._unchecked(tuple(images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def is_identity(self):
        return all(j == i for i, j in enumerate(self.images))

    def cycles(self, include_fixed=False):
        """Cycles as tuples, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Multiset of cycle lengths including fixed points, descending."""
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)),
                            reverse=True))

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Permutation(id, n={self.n})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation({body}, n={self.n})"


def commutator(v, h):
    """[v,h] = v^-1 h^-1 v h, applied right to left."""
    return v.inv() * h.inv() * v * h
