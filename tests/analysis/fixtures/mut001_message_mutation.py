"""MUT001 fixture: post-send mutation and a shared mutable default."""
# repro: scope[wire-messages]

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RosterNotice:
    members: list = []


def rebroadcast(net, channel):
    notice = MappingNotice(channel=channel)  # noqa: F821 - parse-only fixture
    net.send_fanout(notice, 64)
    notice.channel = "redacted"
    return notice
