#include "cc/cc_variant.hpp"

#include <stdexcept>

namespace bbrnash {

const char* to_string(CcKind kind) {
  switch (kind) {
    case CcKind::kCubic:
      return "cubic";
    case CcKind::kReno:
      return "reno";
    case CcKind::kBbr:
      return "bbr";
    case CcKind::kBbrV2:
      return "bbrv2";
    case CcKind::kCopa:
      return "copa";
    case CcKind::kVivace:
      return "vivace";
    case CcKind::kVegas:
      return "vegas";
  }
  return "unknown";
}

namespace {

CubicConfig cubic_config(const CcConfig& cfg) {
  CubicConfig c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  return c;
}

RenoConfig reno_config(const CcConfig& cfg) {
  RenoConfig c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  return c;
}

BbrConfig bbr_config(const CcConfig& cfg) {
  BbrConfig c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  c.min_pipe_cwnd = 4 * cfg.mss;
  c.seed = cfg.seed;
  c.cwnd_gain = cfg.bbr_cwnd_gain;
  return c;
}

BbrV2Config bbrv2_config(const CcConfig& cfg) {
  BbrV2Config c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  c.min_pipe_cwnd = 4 * cfg.mss;
  c.seed = cfg.seed;
  c.cwnd_gain = cfg.bbr_cwnd_gain;
  return c;
}

CopaConfig copa_config(const CcConfig& cfg) {
  CopaConfig c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  c.min_cwnd = 4 * cfg.mss;
  return c;
}

VivaceConfig vivace_config(const CcConfig& cfg) {
  VivaceConfig c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  return c;
}

VegasConfig vegas_config(const CcConfig& cfg) {
  VegasConfig c;
  c.mss = cfg.mss;
  c.initial_cwnd = cfg.initial_cwnd;
  return c;
}

}  // namespace

CcVariant make_cc_variant(CcKind kind, const CcConfig& cfg) {
  switch (kind) {
    case CcKind::kCubic:
      return CcVariant{Cubic{cubic_config(cfg)}};
    case CcKind::kReno:
      return CcVariant{Reno{reno_config(cfg)}};
    case CcKind::kBbr:
      return CcVariant{Bbr{bbr_config(cfg)}};
    case CcKind::kBbrV2:
      return CcVariant{BbrV2{bbrv2_config(cfg)}};
    case CcKind::kCopa:
      return CcVariant{Copa{copa_config(cfg)}};
    case CcKind::kVivace:
      return CcVariant{Vivace{vivace_config(cfg)}};
    case CcKind::kVegas:
      return CcVariant{Vegas{vegas_config(cfg)}};
  }
  throw std::invalid_argument{"unknown congestion control kind"};
}

}  // namespace bbrnash
