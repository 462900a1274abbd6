#pragma once
// Text serialisation for search artefacts.
//
// A co-search produces winners that users need to persist, diff and reload:
// genotypes, accelerator configurations and whole candidates round-trip
// through a compact, human-readable grammar:
//
//   cell     := node(';'node)*                 e.g. "0,1,conv3x3,maxpool3x3;..."
//   node     := input_a','input_b','op_a','op_b
//   genotype := "normal=" cell "|reduction=" cell
//   config   := rows'*'cols'/'gbufKB'/'rbufB'/'dataflow   (paper style)
//   candidate:= genotype "@" config [ "#" normals "x" stem ]
//                (the suffix only for a set SkeletonChoice: normal cells per
//                stage and stem channels, e.g. "#2x24")
//
// Parsers throw std::invalid_argument with a position-specific message on
// malformed input and validate the decoded structure.

#include <string>

#include "accel/config.h"
#include "arch/genotype.h"
#include "core/design_space.h"

namespace yoso {

/// Compact single-line cell serialisation.
std::string serialize_cell(const CellGenotype& cell);
CellGenotype parse_cell(const std::string& text);

/// Full genotype: "normal=<cell>|reduction=<cell>".
std::string serialize_genotype(const Genotype& g);
Genotype parse_genotype(const std::string& text);

/// Accelerator config in the paper's notation: "16*32/512KB/512B/OS".
/// (AcceleratorConfig::to_string produces this format.)
AcceleratorConfig parse_accelerator_config(const std::string& text);

/// Whole candidate: "<genotype>@<config>", plus "#<normals>x<stem>" when
/// its skeleton choice is set (a fixed-space candidate's text carries no
/// suffix).
std::string serialize_candidate(const CandidateDesign& candidate);
CandidateDesign parse_candidate(const std::string& text);

}  // namespace yoso
