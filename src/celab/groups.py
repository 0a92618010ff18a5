"""Finitely generated groups acting on families of programs.

Two presentations are used:

* small finite groups, given by explicit element lists and operation
  tables (cyclic groups suffice for the corpus);
* the free group on countably many generators, with elements as reduced
  words: tuples of nonzero ints where +i / -i are the i-th generator and
  its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    elements: tuple  # element 0 is the identity
    table: tuple     # table[a][b] = a*b

    @property
    def identity(self) -> int:
        return self.elements[0]

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        for b in self.elements:
            if self.op(a, b) == self.identity:
                return b
        raise ValueError(f"no inverse for {a}")


def cyclic(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(f"C{n}", tuple(range(n)), table)


# -- free group on countably many generators --------------------------------


def fw_reduce(word) -> tuple:
    out = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a generator letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def fw_mul(u: tuple, v: tuple) -> tuple:
    return fw_reduce(tuple(u) + tuple(v))


def fw_inv(u: tuple) -> tuple:
    return tuple(-letter for letter in reversed(u))


FW_IDENTITY: tuple = ()
