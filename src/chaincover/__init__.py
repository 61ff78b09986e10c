"""Chain covers, antichains and order decompositions of finite posets.

The package is organized around one immutable carrier type
(:class:`~chaincover.core.Poset`, a transitively closed strict order held as
bitmask rows) and pure functions over it:

* :mod:`~chaincover.core`: construction, duality, induced subposets,
  purity; subsets are bitmasks over a poset's own indices, in arguments
  and results alike;
* :mod:`~chaincover.cover`: exact minimum chain covers, of a poset or of the
  subposet on a bitmask, with antichain certificates;
* :mod:`~chaincover.incgraph`: incomparability components, the lexicographic
  sum decomposition, the incomparability metric;
* :mod:`~chaincover.generators`: half-grids, chains, sums, seeded random
  instances, canonical ideal chains;
* :mod:`~chaincover.patterns`: induced-subposet embedding search;
* :mod:`~chaincover.reduction`: threshold reduction with verified
  certificates;
* :mod:`~chaincover.ideal_embed`: grid embeddings built from ideal chains;
* :mod:`~chaincover.symbolic`: aleph arithmetic and symbolic covering rules;
* :mod:`~chaincover.cli`: the ``chaincover`` command.
"""

from .core import (CycleError, EmptyPoset, InternalInconsistency, Poset,
                   PreconditionError, dual, from_relations, from_text,
                   induced, is_pure)
from .cover import ChainCover, min_chain_cover
from .generators import (GridLabel, SizeError, antichain, canonical_ideal_chain,
                         chain, grid_index, grid_labels, grid_upper, lex_sum,
                         random_poset)
from .incgraph import (MalformedDecomposition, MetricReport, check_metric_lemma,
                       inc_components, inc_distance_path, recompose, to_dot)
from .patterns import (BudgetExhausted, Embedding, embeds, embeds_grid,
                       validate_embedding)
from .reduction import (Claim1Result, Claim2Report, ReductionOutcome,
                        claim1_reduce, cover_bound_report, reduce)
from .ideal_embed import (EmbedFailure, IdealChain, InvalidChain,
                          embed_from_ideal_chain, validate_ideal_chain)
from .symbolic import (CapMissing, Cardinal, DomainError, FiniteCardinal,
                       OrdinalCNF, ParseError, PosetTerm, cofinality,
                       cov_symbolic, obstruction_list, parse_term, realize,
                       term_to_text)

__all__ = [name for name in dir() if not name.startswith("_")]
