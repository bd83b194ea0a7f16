"""Span analysis for the end-to-end benchmark: self time, coverage.

A span is a row [id, parent, name, start_ns, end_ns, thread]. Spans whose
name starts with "job" group a job; every other span is a layer call,
named "<module>.<step>". A span's self time is its duration minus the
part of its interval that its child spans cover (children may run in
parallel on other threads, so the covered part is the union of their
intervals, clipped to the parent's).
"""

from collections import defaultdict

NS = 1e-9


def is_layer(name):
    return not name.startswith("job")


def module_of(name):
    return name.split(".", 1)[0]


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Trace:
    def __init__(self, rows):
        self.spans = {r[0]: r for r in rows}
        self.children = defaultdict(list)
        for r in rows:
            if r[1] in self.spans:
                self.children[r[1]].append(r[0])

    def roots(self, name):
        return [r for r in self.spans.values()
                if r[2] == name and r[1] not in self.spans]

    def duration(self, span_id):
        r = self.spans[span_id]
        return (r[4] - r[3]) * NS

    def self_time(self, span_id):
        r = self.spans[span_id]
        kids = [(self.spans[c][3], self.spans[c][4])
                for c in self.children[span_id]]
        return (r[4] - r[3] - union_length(kids, r[3], r[4])) * NS

    def subtree(self, span_id):
        out, stack = [], [span_id]
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(self.children[s])
        return out

    def self_by_name(self, span_ids=None):
        """Summed self time per span name over @p span_ids (default all)."""
        totals = defaultdict(float)
        for s in (self.spans if span_ids is None else span_ids):
            totals[self.spans[s][2]] += self.self_time(s)
        return dict(totals)

    def coverage(self, root_id):
        """Share of the root's interval covered by layer spans below it."""
        r = self.spans[root_id]
        layer = [(self.spans[s][3], self.spans[s][4])
                 for s in self.subtree(root_id)
                 if s != root_id and is_layer(self.spans[s][2])]
        length = r[4] - r[3]
        return union_length(layer, r[3], r[4]) / length if length else 1.0

    def durations(self, name, span_ids=None):
        ids = self.spans if span_ids is None else span_ids
        return [self.duration(s) for s in ids if self.spans[s][2] == name]
