/**
 * @file
 * Reference ZUC, 128-EEA3 and 128-EIA3 written as the ETSI/SAGE
 * specification text reads: a shifting LFSR (one memmove per keystream
 * word), byte-at-a-time EEA3 and bit-serial EIA3. The word-at-a-time
 * kernel in src/crypto/zuc.cc must agree with it bit for bit; it lives
 * only under tests/ so src/ keeps one ZUC.
 */
#ifndef FLD_TESTS_CRYPTO_REFERENCE_ZUC_H
#define FLD_TESTS_CRYPTO_REFERENCE_ZUC_H

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace fld::crypto::reference {

/** ZUC keystream generator (LFSR + bit reorganization + nonlinear F). */
class Zuc
{
  public:
    using Key = std::array<uint8_t, 16>;
    using Iv = std::array<uint8_t, 16>;

    Zuc(const Key& key, const Iv& iv) { init(key, iv); }

    /** (Re-)initialize with a key/IV pair; runs the 32 warmup rounds. */
    void init(const Key& key, const Iv& iv);

    /** Produce the next 32-bit keystream word. */
    uint32_t next();

    /** Produce @p n consecutive keystream words. */
    std::vector<uint32_t> generate(size_t n);

  private:
    uint32_t lfsr_[16]; // 31-bit cells
    uint32_t r1_ = 0;
    uint32_t r2_ = 0;
    uint32_t x_[4]; // bit-reorganization output

    void bit_reorganization();
    uint32_t f();
    void lfsr_with_initialization(uint32_t u);
    void lfsr_with_work_mode();
};

/**
 * 128-EEA3 confidentiality: encrypt/decrypt @p length_bits of @p data
 * in place. Encryption and decryption are the same operation.
 *
 * @param count     32-bit counter.
 * @param bearer    5-bit bearer identity.
 * @param direction 1-bit direction (0 = uplink, 1 = downlink).
 */
void eea3_crypt(const Zuc::Key& key, uint32_t count, uint8_t bearer,
                uint8_t direction, uint8_t* data, size_t length_bits);

/**
 * 128-EIA3 integrity: compute the 32-bit MAC over @p length_bits of
 * @p data.
 */
uint32_t eia3_mac(const Zuc::Key& key, uint32_t count, uint8_t bearer,
                  uint8_t direction, const uint8_t* data,
                  size_t length_bits);

} // namespace fld::crypto::reference

#endif // FLD_TESTS_CRYPTO_REFERENCE_ZUC_H
