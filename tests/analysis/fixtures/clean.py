"""A fixture with no violations, even under every scope tag."""
# repro: scope[hot-path,no-io,layer-broker]

from random import Random


def pick_server(servers: list, rng: Random) -> str:
    candidates = set(servers)
    ranked = sorted(candidates)
    return ranked[rng.randrange(len(ranked))]


class Dispatcher:
    def receive(self, message) -> None:
        if isinstance(message, (PlanPush, NoMoreSubscribers)):  # noqa: F821
            self._apply(message)
        else:
            raise TypeError(type(message).__name__)

    def _apply(self, message) -> None:
        pass
