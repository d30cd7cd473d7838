"""Union-code toolkit for subspace and rank metric codes over RLNC."""

__version__ = "0.1.0"

from .codes import (GabidulinSpec, KKSpec, MVSpec, Codeword, PacketLayout,
                    build_codebook, encode)
from .decoders import (DecodeOptions, DecodeResult, PacketVerdict, TwoTierResult,
                       tier1_decode, tier2_list_decode, tier2_rank_decode,
                       tier2_subspace_decode, two_tier_decode)
from .errors import BudgetError, ConfigError, ToolkitError
from .fields import FieldContext, FieldElement, format_element, parse_element
from .linpoly import LinearizedPoly
from .metrics import (Subspace, hamming_distance, hamming_weight, injection_distance,
                      min_distance, rank_distance, rank_over_base, subspace_distance)
from .sim import CodeSetup, ErrorModel, Topology, run_experiment, run_trial
from .union import UnionCode, build_union, component_min_distances, verify_lemmas
