import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import eppscore
from eppscore.analysis import EmbeddingPoint, SpreadKind
from eppscore.svg import scatter_svg


def points():
    return [
        EmbeddingPoint("gbm", "d1", 1.2, 0.3, SpreadKind.MEDIAN, 5),
        EmbeddingPoint("gbm", "d2", 0.8, 0.5, SpreadKind.MEDIAN, 5),
        EmbeddingPoint("kknn", "d1", -1.5, 2.0, SpreadKind.MEDIAN, 5),
    ]


def test_valid_xml_with_expected_structure():
    text = scatter_svg(points())
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    # one circle per point plus one legend swatch per algorithm
    assert len(circles) == 3 + 2


def test_distinct_colors_per_algorithm():
    text = scatter_svg(points())
    root = ET.fromstring(text)
    fills = {
        el.attrib["fill"]
        for el in root.iter()
        if el.tag.endswith("circle")
    }
    assert len(fills) == 2


def test_axis_labels_present():
    text = scatter_svg(points())
    assert "average EPP" in text
    assert "median absolute deviation" in text


def test_mean_spread_kind_changes_label():
    mean_points = [
        EmbeddingPoint("gbm", "d1", 1.0, 0.2, SpreadKind.MEAN, 3),
    ]
    assert "mean absolute deviation" in scatter_svg(mean_points)


def test_deterministic_output():
    assert scatter_svg(points()) == scatter_svg(points())


def test_single_point_does_not_crash():
    text = scatter_svg([EmbeddingPoint("a", "d", 0.0, 0.0, SpreadKind.MEDIAN, 1)])
    ET.fromstring(text)


def test_markup_characters_in_labels_are_escaped():
    pts = [
        EmbeddingPoint("a&b<c>", "d\"1'", 1.0, 0.5, SpreadKind.MEDIAN, 3),
        EmbeddingPoint("x'y\"z", "<&>", -1.0, 0.25, SpreadKind.MEDIAN, 3),
    ]
    text = scatter_svg(pts, x_label="x <&> \"'", y_label="y & 'q'", title="T<&>\"'")
    # the lines xml.sax.saxutils.escape produced for these labels
    assert [line for line in text.splitlines() if "&" in line or "'" in line] == [
        '<text x="64" y="20" font-family="sans-serif" font-size="14" '
        'font-weight="bold">T&lt;&amp;&gt;"\'</text>',
        '<text x="317.00" y="470" text-anchor="middle" font-family="sans-serif" '
        'font-size="11" fill="#333333">x &lt;&amp;&gt; "\'</text>',
        '<text x="16" y="234.00" text-anchor="middle" transform="rotate(-90 16 234.00)" '
        'font-family="sans-serif" font-size="11" fill="#333333">y &amp; \'q\'</text>',
        '<circle cx="547.00" cy="54.86" r="4" fill="#1b9e77" fill-opacity="0.8">'
        '<title>a&amp;b&lt;c&gt; / d"1\'</title></circle>',
        '<circle cx="87.00" cy="243.43" r="4" fill="#d95f02" fill-opacity="0.8">'
        '<title>x\'y"z / &lt;&amp;&gt;</title></circle>',
        '<text x="596" y="52" font-family="sans-serif" font-size="11" '
        'fill="#333333">a&amp;b&lt;c&gt;</text>',
        '<text x="596" y="70" font-family="sans-serif" font-size="11" '
        'fill="#333333">x\'y"z</text>',
    ]
    assert ET.fromstring(text).find("{http://www.w3.org/2000/svg}text").text == "T<&>\"'"


def test_cli_import_does_not_load_urllib():
    src = str(Path(eppscore.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    probe = (
        "import sys, eppscore.cli; print(sorted(m for m in "
        "('urllib.request', 'http.client', 'email') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
