"""Pattern inference over sets and multisets, under its old names.

Set and multiset samples are `data.LearningData` in `Mode.SET` or
`Mode.MULTISET`, and `stp_inference.infer` and `pattern_core.member` serve
every mode.  `perfbench/` looks up the three names below; they stay until
the benchmark calls `LearningData`, `infer` and `member`.
"""

from .data import LearningData
from .pattern_core import member
from .stp_inference import infer

CollectionData = LearningData
infer_collection = infer
collection_member = member
