"""Run configuration and canonical network text: parsing, rendering,
and the named model variants."""

import pytest

from ebssc import ConfigError
from ebssc.config import VARIANTS, RunConfig, parse_config, parse_network, \
    serialize_config, serialize_network, variant_spec
from ebssc.network import NetworkSpec


class TestParseConfig:
    """`key = value` run files."""

    def test_defaults_from_empty_text(self):
        """No keys means the stock RunConfig."""
        assert parse_config("") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        """# starts a comment anywhere on a line."""
        cfg = parse_config("# a comment\n\nepochs = 3  # trailing\n")
        assert cfg.epochs == 3

    def test_round_trip_is_identity(self):
        """parse(serialize(cfg)) == cfg for a non-default config."""
        cfg = RunConfig(alpha=0.0001, learning_rate=0.005, batch_size=20,
                        epochs=7, unroll_T=1, seed=9, beta=0.01,
                        dropout=0.3, augment=True, whiten=True, subset=200,
                        variant="ssc_ebc67")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_text_is_fixed_point(self):
        """serialize(parse(text)) is stable after one round."""
        text = serialize_config(RunConfig(learning_rate=0.005))
        assert serialize_config(parse_config(text)) == text

    def test_unknown_key_lists_valid_ones(self):
        """Typos name the line and the accepted keys."""
        with pytest.raises(ConfigError, match="line 1.*learning_rate"):
            parse_config("learning_rat = 0.1")

    def test_bad_value_type(self):
        """Uncoercible values name the key and expected type."""
        with pytest.raises(ConfigError, match="epochs.*int"):
            parse_config("epochs = many")
        with pytest.raises(ConfigError, match="augment"):
            parse_config("augment = yes")

    def test_missing_equals(self):
        """Bare words are syntax errors with line numbers."""
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("epochs = 1\nnonsense\n")

    def test_bad_variant_and_dataset(self):
        """Both enumerations are validated after parsing."""
        with pytest.raises(ConfigError, match="variant"):
            parse_config("variant = resnet50")
        with pytest.raises(ConfigError, match="dataset"):
            parse_config("dataset = imagenet")

    @pytest.mark.parametrize("text", [
        "learning_rate = 0", "adam_eps = -1e-8", "alpha = -0.5",
        "batch_size = 0", "epochs = -1", "unroll_T = 9",
        "variant = ssc_ebc67\ndropout = 1.5", "subset = -5",
        "beta = -0.5"])
    def test_values_the_model_rejects_are_config_errors(self, text):
        """Values TrainConfig or the network spec would refuse fail at
        parse time, not after the data is loaded."""
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_train_config_view(self):
        """Optimizer fields copy over to the TrainConfig."""
        cfg = parse_config("learning_rate = 0.002\nunroll_T = 2\n"
                           "alpha = 0.01\n")
        tc = cfg.train_config()
        assert tc.learning_rate == 0.002
        assert tc.unroll_T == 2
        assert tc.alpha == 0.01

    def test_network_spec_view(self):
        """The variant/beta/dropout knobs assemble the NetworkSpec."""
        cfg = parse_config("variant = digits_ssc_ebc2\nbeta = 0.01\n")
        spec = cfg.network_spec()
        assert spec.blocks[0].beta == 0.01
        assert spec.input_shape == (1, 28, 28)


class TestNetworkText:
    """The canonical text form embedded in checkpoints."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_every_variant(self, variant):
        """parse(serialize(spec)) == spec for each named model."""
        spec = variant_spec(variant, beta=0.01, dropout=0.3)
        assert parse_network(serialize_network(spec)) == spec

    def test_serialized_text_is_fixed_point(self):
        """One serialize/parse round stabilizes the text."""
        text = serialize_network(variant_spec("digits_ssc_ebc2"))
        assert serialize_network(parse_network(text)) == text

    def test_missing_header_rejected(self):
        """num_classes/input/classifier must all be present."""
        with pytest.raises(ConfigError):
            parse_network("input = 1x8x8\nclassifier = linear:0\n"
                          "block0 = relu kernel=4x1x3x3 pad=1 stride=1\n")

    def test_blocks_must_number_consecutively(self):
        """block0, block1, ... with no gaps."""
        text = ("num_classes = 2\ninput = 1x8x8\nclassifier = linear:0\n"
                "block1 = relu kernel=4x1x3x3 pad=1 stride=1\n")
        with pytest.raises(ConfigError):
            parse_network(text)

    def test_unknown_block_kind(self):
        """Invented kinds are refused by name."""
        text = ("num_classes = 2\ninput = 1x8x8\nclassifier = linear:0\n"
                "block0 = sigmoid kernel=4x1x3x3 pad=1 stride=1\n")
        with pytest.raises(ConfigError, match="sigmoid"):
            parse_network(text)

    def test_malformed_kernel(self):
        """Kernel dims must be integers joined by x."""
        text = ("num_classes = 2\ninput = 1x8x8\nclassifier = linear:0\n"
                "block0 = relu kernel=4x1xax3 pad=1 stride=1\n")
        with pytest.raises(ConfigError):
            parse_network(text)

    def test_unknown_field_rejected(self):
        """Stray block fields are named in the error."""
        text = ("num_classes = 2\ninput = 1x8x8\nclassifier = linear:0\n"
                "block0 = relu kernel=4x1x3x3 pad=1 stride=1 groups=2\n")
        with pytest.raises(ConfigError, match="groups"):
            parse_network(text)


class TestVariantSpec:
    """Structure of the named models."""

    def test_all_variants_build(self):
        """Every advertised variant yields a valid spec."""
        for v in VARIANTS:
            spec = variant_spec(v)
            assert isinstance(spec, NetworkSpec)

    def test_seven_block_structure(self):
        """Seven convolutions with two pools, classifier on the last."""
        spec = variant_spec("relu_lc7")
        kinds = [b.kind for b in spec.blocks]
        assert kinds == ["relu", "relu", "maxpool", "relu", "relu", "relu",
                         "maxpool", "relu", "relu"]
        assert spec.classifier == ("linear", 8)
        assert spec.blocks[-1].kernel[2:] == (1, 1)

    def test_split_kinds_double_conv_inputs(self):
        """After a splitting block the next kernel sees 2K channels."""
        crelu = variant_spec("crelu_lc7")
        relu = variant_spec("relu_lc7")
        assert crelu.blocks[1].kernel[1] == 192
        assert relu.blocks[1].kernel[1] == 96

    def test_energy_variant_tail(self):
        """ssc_ebc67 swaps the last two convolutions to class-biased
        coding under an energy head with spatial arm maps."""
        spec = variant_spec("ssc_ebc67")
        assert [b.kind for b in spec.blocks[-2:]] == ["ebssc", "ebssc"]
        assert spec.classifier == ("energy", 7)
        assert all(b.bias_maps for b in spec.blocks[-2:])

    def test_dropout_skips_first_conv(self):
        """Dropout precedes every convolution except the first."""
        spec = variant_spec("ssc_lc7", dropout=0.3)
        convs = [b for b in spec.blocks if b.kind != "maxpool"]
        assert convs[0].dropout_rate == 0.0
        assert all(b.dropout_rate == 0.3 for b in convs[1:])

    def test_beta_reaches_coding_blocks(self):
        """The run-level beta seeds every coding block's thresholds."""
        spec = variant_spec("ssc_ebc67", beta=0.001)
        coding = [b for b in spec.blocks if b.kind in ("ssc", "ebssc")]
        assert all(b.beta == 0.001 for b in coding)

    def test_digits_variant(self):
        """The desk model: two coding blocks around one pool."""
        spec = variant_spec("digits_ssc_ebc2")
        assert [b.kind for b in spec.blocks] == ["ssc", "maxpool", "ebssc"]
        assert spec.blocks[2].bias_maps
        assert spec.num_classes == 10

    def test_unknown_variant(self):
        """Misspelled variants list the real ones."""
        with pytest.raises(ConfigError, match="ssc_ebc67"):
            variant_spec("vgg16")
