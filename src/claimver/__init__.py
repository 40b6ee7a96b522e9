"""Claim-level text verification against a knowledge graph.

Input text is decomposed into claims by a language model, each claim is
grounded in triplets retrieved from the graph, and the validated claims are
scored into a single document attribution score.
"""

from .backend import (BackendConfig, ChatBackend, MockBackend, PromptBundle,
                      build_datagen_prompt, build_verification_prompt, prompt_digest)
from .errors import (BackendAuthError, BackendError, ClaimverError, KgLoadError,
                     PipelineError, PromptError, ResponseParseError,
                     UnknownNodeError, UnknownPromptError)
from .kg import KgNode, KnowledgeGraph, NodeId, Triplet, load_kg
from .linking import LinkedEntity, TextChunk, chunk_text, link_entities, preprocess
from .parsing import (ClaimResult, PredictionLabel, RawClaim, parse_response,
                      validate_claims)
from .pipeline import iter_datagen_records, run_pipeline
from .render import render
from .report import VerificationReport
from .retrieval import KgPath, RetrievalConfig, RetrievedTriplets, retrieve
from .scoring import (AttributionResult, FallbackEmbedder, HashedBagEmbedder,
                      HttpEmbedder, ScoredClaim, ScoringConfig, claim_score,
                      entity_presence_ratio, kg_attribution_score,
                      modified_sigmoid, score_claims, semantic_similarity,
                      triplets_match_score)

__version__ = "0.1.0"

__all__ = [
    "BackendAuthError", "BackendConfig", "BackendError", "ChatBackend",
    "ClaimResult", "ClaimverError", "AttributionResult", "FallbackEmbedder",
    "HashedBagEmbedder", "HttpEmbedder", "KgLoadError", "KgNode", "KgPath",
    "KnowledgeGraph", "LinkedEntity", "MockBackend", "NodeId", "PipelineError",
    "PredictionLabel", "PromptBundle", "PromptError", "RawClaim",
    "ResponseParseError", "RetrievalConfig", "RetrievedTriplets", "ScoredClaim",
    "ScoringConfig", "TextChunk", "Triplet", "UnknownNodeError",
    "UnknownPromptError", "VerificationReport", "build_datagen_prompt",
    "build_verification_prompt", "chunk_text", "claim_score",
    "entity_presence_ratio", "iter_datagen_records",
    "kg_attribution_score", "link_entities", "load_kg", "modified_sigmoid",
    "parse_response", "preprocess", "prompt_digest", "render", "retrieve",
    "run_pipeline", "score_claims", "semantic_similarity", "triplets_match_score",
    "validate_claims",
]
