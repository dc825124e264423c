"""One name-keyed registry, shared by every pluggable axis.

Consolidation strategies, execution backends, oracles, search
algorithms, workloads and apps are all named singletons kept in
registration order. Each of those modules builds one :class:`Registry`
and keeps its own public ``register_*``/``get_*``/``available_*``
functions, validator and error class on top of it.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Named instances of one class, in registration order.

    ``kind`` names an entry in messages (``"backend"``); ``unknown`` is
    the noun of the failed-lookup message (default: ``kind``) and
    ``error`` its exception class. ``validate`` vets an entry before it
    is added, and ``key`` names the attribute entries are keyed by.
    """

    def __init__(self, kind: str, cls: type, *, error: type = KeyError,
                 unknown: Optional[str] = None,
                 validate: Optional[Callable[[T], None]] = None,
                 key: str = "name"):
        self.kind = kind
        self.cls = cls
        self.error = error
        self.unknown = unknown or kind
        self.validate = validate
        self.key = key
        self._items: dict[str, T] = {}

    def register(self, item: T, replace: bool = False) -> T:
        """Add an entry (validated); returns it."""
        if not isinstance(item, self.cls):
            noun = self.cls.__name__
            article = "an" if noun[0] in "AEIOU" else "a"
            raise TypeError(
                f"expected {article} {noun} instance, got {item!r}")
        name = getattr(item, self.key)
        if not name:
            raise ValueError(
                f"{type(item).__name__} must define a {self.key}")
        if self.validate is not None:
            self.validate(item)
        if name in self._items and not replace:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._items[name] = item
        return item

    def unregister(self, name: str) -> None:
        """Remove an entry (test/plugin cleanup)."""
        if name not in self._items:
            raise KeyError(f"{self.kind} {name!r} is not registered")
        del self._items[name]

    def get(self, name) -> T:
        """Look up an entry by name; instances pass through unchanged."""
        if isinstance(name, self.cls):
            return name
        item = self._items.get(name)
        if item is None:
            raise self.error(f"unknown {self.unknown} {name!r}; "
                             f"available: {', '.join(self._items)}")
        return item

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._items)

    def values(self) -> tuple[T, ...]:
        """Registered entries, in registration order."""
        return tuple(self._items.values())

    def __getitem__(self, name: str) -> T:
        """Dict-style lookup: a miss raises a bare ``KeyError(name)``."""
        return self._items[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)
