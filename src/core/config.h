#ifndef ADAMOVE_CORE_CONFIG_H_
#define ADAMOVE_CORE_CONFIG_H_

#include <cstdint>
#include <string>

namespace adamove::core {

/// Sequential encoder families evaluated in Fig. 5.
enum class EncoderType : uint8_t { kRnn, kLstm, kGru, kTransformer };

std::string EncoderTypeName(EncoderType type);

/// Architecture hyper-parameters (§IV-A defaults: embeddings {48, 8, 16},
/// LSTM encoder; the Transformer variant uses 2 layers with 8 heads).
struct ModelConfig {
  int64_t num_locations = 0;  // required
  int64_t num_users = 0;      // required
  int64_t location_emb_dim = 48;
  int64_t time_emb_dim = 8;
  int64_t user_emb_dim = 16;
  int64_t hidden_size = 64;
  EncoderType encoder = EncoderType::kLstm;
  /// Stacked recurrent layers (RNN/LSTM/GRU families); the paper uses 1.
  int64_t rnn_layers = 1;
  int64_t transformer_layers = 2;
  int64_t transformer_heads = 8;
  float dropout = 0.1f;
  /// λ — weight of the contrastive loss in LightMob (Eq. 11).
  double lambda = 0.8;
  /// InfoNCE temperature (1.0 = the paper's Eq. 9 literally).
  double contrastive_temperature = 1.0;
  uint64_t seed = 7;
};

/// Training hyper-parameters (§IV-A: Adam, lr 1e-2 decayed on plateaus of
/// validation accuracy, stop at lr <= 1e-4, batch 50, at most 30 epochs).
struct TrainConfig {
  double learning_rate = 1e-2;
  double min_learning_rate = 1e-4;
  double decay_factor = 0.7;
  /// Consecutive non-improving epochs tolerated before a decay step.
  int plateau_patience = 2;
  int batch_size = 50;
  int max_epochs = 30;
  /// Validation samples used for the plateau schedule (0 = all; a cap keeps
  /// single-core epochs fast without changing the schedule's behaviour).
  int max_val_samples = 400;
  /// Training samples visited per epoch (0 = all). When capped, each epoch
  /// sees a different random subset (the shuffle runs first), so the whole
  /// corpus is still consumed across epochs — stochastic sub-epoch training.
  int max_train_samples_per_epoch = 0;
  uint64_t seed = 17;
  bool verbose = false;
};

/// PTTA / T3A knowledge-base parameters (§III-B; Algorithm 1).
struct PttaConfig {
  /// Capacity M of the knowledge base per location (paper default 5).
  int capacity = 5;
  /// Sample-importance strategy: true = cosine similarity to the test
  /// pattern (PTTA); false = negative prediction entropy (the paper's
  /// "w/ ent" ablation and T3A's strategy).
  bool similarity_importance = true;
  /// Label source: true = actual next locations from the test trajectory
  /// (PTTA); false = model pseudo-labels (the "w/ pseudo-label" ablation
  /// and T3A).
  bool use_true_labels = true;
};

/// The classic T3A configuration (pseudo-labels + entropy importance).
inline PttaConfig T3aConfig(int capacity = 5) {
  PttaConfig c;
  c.capacity = capacity;
  c.similarity_importance = false;
  c.use_true_labels = false;
  return c;
}

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_CONFIG_H_
