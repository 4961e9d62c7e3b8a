"""Tests for markdown table rendering."""

from repro.metrics.report import markdown_table


def test_markdown_table_shape():
    table = markdown_table(
        ["benchmark", "overhead"],
        [["redis", 33.71], ["ssdb", 31.83]],
    )
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("| benchmark")
    assert set(lines[1]) <= {"|", "-"}
    assert "33.71" in lines[2]
    # Valid markdown: consistent column counts.
    assert all(line.count("|") == lines[0].count("|") for line in lines)


def test_markdown_table_empty_rows():
    table = markdown_table(["a", "b"], [])
    assert table.splitlines()[0] == "| a | b |"
