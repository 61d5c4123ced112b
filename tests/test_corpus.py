"""A fixed sample of the answer corpus (corpus.py) replays byte for byte;
`python tests/corpus.py --check` replays all of it."""

import corpus
from corpus import text_argv

RECORDS = corpus.load()
README = set(map(text_argv, corpus.readme_commands()))
# every README example, then every third benchmark line, which alternates
# text and --json
SAMPLE = ([r for r in RECORDS if text_argv(r["argv"]) in README]
          + [r for r in RECORDS[::3] if text_argv(r["argv"]) not in README])


def test_sample_covers_every_subcommand_in_both_formats():
    formats = {(r["argv"][0], "--json" in r["argv"]) for r in SAMPLE}
    names = {"milnor", "table", "compare", "action", "realize", "hall", "moves", "link-vanishing"}
    assert formats == {(name, fmt) for name in names for fmt in (False, True)}


def test_sample_replays_identically():
    assert corpus.differences(SAMPLE) == []


def test_a_changed_answer_fails_the_replay():
    """A line whose stdout hash or exit code differs from the replay is
    reported, naming the command."""
    want = dict(RECORDS[0], stdout="0" * 64)
    assert corpus.differences([want]) == [f"stdout differ: {corpus.json.dumps(want['argv'])}"]
    want = dict(RECORDS[0], exit=RECORDS[0]["exit"] + 1)
    assert corpus.differences([want])[0].startswith("exit differ")
